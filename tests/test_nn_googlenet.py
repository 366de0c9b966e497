"""Tests for the GoogLeNet builder, weights, and model zoo."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.nn import (
    GoogLeNetConfig,
    Network,
    build_googlenet,
    get_model,
    initialize_network,
    list_models,
)
from repro.nn.googlenet import INCEPTION_TABLE, feature_blob_name
from repro.tensors import BlobShape
from repro.nn.weights import WeightStore
from repro.nn.zoo import model_entry


def test_inception_table_matches_szegedy():
    # Output channels of each module must match the published table.
    expected_out = {"3a": 256, "3b": 480, "4a": 512, "4b": 512,
                    "4c": 512, "4d": 528, "4e": 832, "5a": 832,
                    "5b": 1024}
    for tag, (c1, _, c3, _, c5, cp) in INCEPTION_TABLE.items():
        assert c1 + c3 + c5 + cp == expected_out[tag]


def test_paper_scale_shapes():
    net = build_googlenet()  # 224px, width 1.0
    shapes = net.infer_shapes()
    assert shapes["conv1/7x7_s2"] == BlobShape(1, 64, 112, 112)
    assert shapes["pool2/3x3_s2"] == BlobShape(1, 192, 28, 28)
    assert shapes["inception_3a/output"] == BlobShape(1, 256, 28, 28)
    assert shapes["inception_4a/output"] == BlobShape(1, 512, 14, 14)
    assert shapes["inception_5b/output"] == BlobShape(1, 1024, 7, 7)
    assert shapes["pool5/drop_in"] == BlobShape(1, 1024, 1, 1)
    assert shapes["prob"] == BlobShape(1, 1000, 1, 1)


def test_paper_scale_param_count():
    # BVLC GoogLeNet has ~7.0M parameters (6.99M); deploy net w/o aux.
    net = build_googlenet()
    params = sum(l.param_count() for l in net.layers)
    assert 6.5e6 < params < 7.5e6


def test_paper_scale_macs():
    # ~1.5 GMAC per 224x224 image (Szegedy et al. report ~1.5B).
    macs = build_googlenet().total_macs(batch=1)
    assert 1.2e9 < macs < 2.0e9


def test_layer_count_matches_deploy_prototxt():
    # BVLC deploy: 57 convs+9 concats+13 pools+2 LRN+57 relus... we
    # assert the structural counts per type.
    net = build_googlenet()
    by_type = {}
    for l in net.layers:
        by_type[l.type_name()] = by_type.get(l.type_name(), 0) + 1
    assert by_type["Convolution"] == 57  # 3 stem + 9 modules * 6
    assert by_type["Concat"] == 9
    assert by_type["LRN"] == 2
    assert by_type["Pooling"] == 14  # pool1,2,3,4 + 9 module pools + avg
    assert by_type["InnerProduct"] == 1
    assert by_type["Softmax"] == 1
    assert by_type["Dropout"] == 1


def test_width_scaling_reduces_params():
    full = build_googlenet(GoogLeNetConfig(input_size=64))
    quarter = build_googlenet(GoogLeNetConfig(input_size=64, width=0.25))
    p_full = sum(l.param_count() for l in full.layers)
    p_quarter = sum(l.param_count() for l in quarter.layers)
    assert p_quarter < p_full / 8  # params scale ~quadratically in width


def test_mini_variant_runs_forward():
    net = get_model("googlenet-micro")
    initialize_network(net, seed=0)
    x = np.random.default_rng(0).normal(
        size=(2, 3, 32, 32)).astype(np.float32) * 0.1
    out = net.forward(x)
    assert out.shape == (2, 10, 1, 1)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-4)


def test_config_validation():
    with pytest.raises(GraphError):
        GoogLeNetConfig(num_classes=1)
    with pytest.raises(GraphError):
        GoogLeNetConfig(input_size=16)
    with pytest.raises(GraphError):
        GoogLeNetConfig(width=0)
    with pytest.raises(GraphError):
        GoogLeNetConfig(width=1.5)


def test_include_lrn_false_drops_lrn():
    net = build_googlenet(GoogLeNetConfig(input_size=64,
                                          include_lrn=False))
    assert all(l.type_name() != "LRN" for l in net.layers)
    net.validate()


def test_initialize_network_deterministic():
    a = get_model("googlenet-micro")
    b = get_model("googlenet-micro")
    initialize_network(a, seed=7)
    initialize_network(b, seed=7)
    for la, lb in zip(a.layers, b.layers):
        for role in la.params:
            np.testing.assert_array_equal(la.params[role],
                                          lb.params[role])


def test_initialize_network_seed_changes_weights():
    a = get_model("googlenet-micro")
    b = get_model("googlenet-micro")
    initialize_network(a, seed=1)
    initialize_network(b, seed=2)
    wa = a.layer("conv1/7x7_s2").params["weight"]
    wb = b.layer("conv1/7x7_s2").params["weight"]
    assert not np.array_equal(wa, wb)


def test_activations_stay_in_fp16_range():
    # He-init keeps every blob well inside binary16's dynamic range.
    net = get_model("googlenet-micro")
    initialize_network(net, seed=0)
    x = np.random.default_rng(1).uniform(
        -1, 1, size=(1, 3, 32, 32)).astype(np.float32)
    blob_names = [l.tops[0] for l in net.layers]
    _, captured = net.forward_with_blobs(x, capture=blob_names)
    for name, blob in captured.items():
        assert np.all(np.abs(blob) < 65504), f"{name} overflows fp16"
        assert np.all(np.isfinite(blob)), f"{name} not finite"


def test_weightstore_pretrain_classifier_is_prototype_based():
    net = get_model("googlenet-micro")
    rng = np.random.default_rng(3)
    templates = rng.uniform(-1, 1, size=(10, 3, 32, 32)).astype(
        np.float32)
    store = WeightStore(seed=0, logit_scale=8.0)
    store.pretrain(net, lambda c: templates[c], num_classes=10)
    # Noise-free templates must classify to their own class with high
    # confidence (this is the construction's defining property).
    labels, confs = net.predict(templates)
    assert np.array_equal(labels, np.arange(10))
    assert confs.mean() > 0.5


def test_weightstore_deterministic():
    def build():
        net = get_model("googlenet-micro")
        rng = np.random.default_rng(4)
        t = rng.uniform(-1, 1, size=(10, 3, 32, 32)).astype(np.float32)
        WeightStore(seed=5).pretrain(net, lambda c: t[c], num_classes=10)
        return net.layer("loss3/classifier").params["weight"]

    np.testing.assert_array_equal(build(), build())


def test_zoo_listing_and_lookup():
    assert "googlenet" in list_models()
    assert "googlenet-mini" in list_models()
    entry = model_entry("googlenet-mini")
    assert entry.config.width == 0.25
    with pytest.raises(GraphError):
        model_entry("resnet")


def test_feature_blob_exists_in_topology():
    net = get_model("googlenet-micro")
    shapes = net.infer_shapes()
    assert feature_blob_name() in shapes
