"""Tests for grouped convolutions and the AlexNet topology."""

import numpy as np
import pytest

from repro.errors import GraphError, ShapeError
from repro.nn import AlexNetConfig, Convolution, build_alexnet, get_model
from repro.nn.weights import WeightStore, initialize_network
from repro.nn.zoo import model_entry
from repro.tensors import BlobShape
from repro.tensors.im2col import conv2d_gemm


# --- grouped convolution -----------------------------------------------------

def test_group_validation():
    with pytest.raises(ShapeError):
        Convolution("c", "a", "b", num_output=4, kernel_size=3,
                    in_channels=6, group=4)  # 4 does not divide 6
    with pytest.raises(ShapeError):
        Convolution("c", "a", "b", num_output=5, kernel_size=3,
                    in_channels=4, group=2)  # 2 does not divide 5
    with pytest.raises(ValueError):
        Convolution("c", "a", "b", num_output=4, kernel_size=3,
                    in_channels=4, group=0)


def test_group_weight_shape():
    conv = Convolution("c", "a", "b", num_output=8, kernel_size=3,
                       in_channels=4, group=2)
    assert conv.params["weight"].shape == (8, 2, 3, 3)


def test_grouped_forward_matches_manual_split():
    rng = np.random.default_rng(0)
    conv = Convolution("c", "a", "b", num_output=4, kernel_size=3,
                       in_channels=4, pad=1, group=2)
    w = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    conv.set_params(weight=w, bias=b)
    x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
    out = conv.forward([x])[0]
    # Manual: group 0 = channels 0-1 -> outputs 0-1, group 1 likewise.
    g0 = conv2d_gemm(x[:, :2], w[:2], b[:2], 1, 1)
    g1 = conv2d_gemm(x[:, 2:], w[2:], b[2:], 1, 1)
    np.testing.assert_allclose(out, np.concatenate([g0, g1], axis=1),
                               rtol=1e-5)


def test_grouped_macs_halved():
    dense = Convolution("d", "a", "b", num_output=4, kernel_size=3,
                        in_channels=4, pad=1)
    grouped = Convolution("g", "a", "b", num_output=4, kernel_size=3,
                          in_channels=4, pad=1, group=2)
    shape = BlobShape(1, 4, 8, 8)
    assert grouped.macs([shape]) == dense.macs([shape]) // 2


def test_channel_mismatch_caught_in_shapes():
    conv = Convolution("c", "a", "b", num_output=4, kernel_size=3,
                       in_channels=4, pad=1)
    with pytest.raises(ShapeError):
        conv.output_shapes([BlobShape(1, 3, 8, 8)])


# --- AlexNet topology --------------------------------------------------------------

def test_alexnet_matches_published_structure():
    net = get_model("alexnet")
    shapes = net.infer_shapes()
    assert shapes["conv1"] == BlobShape(1, 96, 55, 55)
    assert shapes["pool1"] == BlobShape(1, 96, 27, 27)
    assert shapes["conv2"] == BlobShape(1, 256, 27, 27)
    assert shapes["pool2"] == BlobShape(1, 256, 13, 13)
    assert shapes["conv5"] == BlobShape(1, 256, 13, 13)
    assert shapes["pool5"] == BlobShape(1, 256, 6, 6)
    assert shapes["fc6"] == BlobShape(1, 4096, 1, 1)
    assert shapes["prob"] == BlobShape(1, 1000, 1, 1)


def test_alexnet_param_and_mac_counts():
    net = get_model("alexnet")
    params = sum(l.param_count() for l in net.layers)
    assert params == pytest.approx(61e6, rel=0.01)   # 60.97M
    assert net.total_macs(1) == pytest.approx(720e6, rel=0.05)


def test_alexnet_grouped_layers():
    net = get_model("alexnet")
    assert net.layer("conv2").group == 2
    assert net.layer("conv4").group == 2
    assert net.layer("conv5").group == 2
    assert net.layer("conv1").group == 1


def test_alexnet_config_validation():
    with pytest.raises(GraphError):
        AlexNetConfig(input_size=32)
    with pytest.raises(GraphError):
        AlexNetConfig(num_classes=1)
    with pytest.raises(GraphError):
        AlexNetConfig(width=0)


def test_alexnet_width_keeps_group_divisibility():
    cfg = AlexNetConfig(num_classes=10, input_size=95, width=0.3)
    net = build_alexnet(cfg)
    assert net.layer("conv2").num_output % 2 == 0
    net.validate()


def test_alexnet_mini_forward():
    net = get_model("alexnet-mini")
    initialize_network(net)
    x = np.random.default_rng(0).normal(
        size=(2, 3, 79, 79)).astype(np.float32) * 0.1
    out = net.forward(x)
    assert out.shape == (2, 50, 1, 1)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-4)


def test_alexnet_pretrain_classifies_templates():
    from repro.data import ImageSynthesizer, Preprocessor
    entry = model_entry("alexnet-mini")
    net = entry.build()
    synth = ImageSynthesizer(num_classes=50, size=96, noise_sigma=0)
    pp = Preprocessor(input_size=79)
    WeightStore(seed=0).pretrain(
        net, lambda c: pp(synth.template(c)), num_classes=50,
        classifier_layer=entry.classifier_layer,
        feature_blob=entry.feature_blob)
    x = np.stack([pp(synth.template(c)) for c in range(50)])
    labels, confs = net.predict(x)
    assert np.array_equal(labels, np.arange(50))


def test_alexnet_compiles_for_vpu():
    """AlexNet's fc6 stresses the weight-streaming tiling path."""
    from repro.vpu import compile_graph
    net = get_model("alexnet")
    g = compile_graph(net)
    fc6 = next(l for l in g.layers if l.name == "fc6")
    assert not fc6.tile_plan.fits_cmx   # 37M fp16 params >> 2 MB CMX
    assert fc6.tile_plan.num_tiles > 10
    # AlexNet is lighter than GoogLeNet in MACs but heavier in DDR
    # traffic; single-stick latency lands in the tens of ms.
    assert 0.02 < g.inference_seconds < 0.12


def test_alexnet_feature_blob_name():
    assert model_entry("alexnet").feature_blob == "fc7"
    net = get_model("alexnet-mini")
    assert "fc7" in net.infer_shapes()
