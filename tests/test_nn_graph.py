"""Tests for the Network DAG container."""

import numpy as np
import pytest

from repro.errors import GraphError, ShapeError
from repro.nn import Convolution, Network, ReLU, Softmax
from repro.numerics import PrecisionPolicy
from repro.tensors import BlobShape


def _tiny_net():
    net = Network("tiny", "data", BlobShape(1, 2, 4, 4))
    net.add(Convolution("conv", "data", "conv", num_output=3,
                        kernel_size=3, in_channels=2, pad=1))
    net.add(ReLU("relu", "conv", "conv"))
    net.add(Softmax("prob", "conv", "prob"))
    return net


def test_wiring_validation_undefined_blob():
    net = Network("n", "data", BlobShape(1, 1, 2, 2))
    with pytest.raises(GraphError, match="undefined blob"):
        net.add(ReLU("r", "nonexistent", "out"))


def test_wiring_duplicate_layer_name():
    net = _tiny_net()
    with pytest.raises(GraphError, match="duplicate"):
        net.add(ReLU("relu", "prob", "x"))


def test_wiring_duplicate_top_rejected():
    net = Network("n", "data", BlobShape(1, 1, 2, 2))
    net.add(ReLU("r1", "data", "out"))
    with pytest.raises(GraphError, match="already produced"):
        net.add(ReLU("r2", "data", "out"))


def test_inplace_top_allowed():
    net = Network("n", "data", BlobShape(1, 1, 2, 2))
    net.add(ReLU("r1", "data", "data"))  # in-place, Caffe style
    assert len(net) == 1


def test_layer_lookup():
    net = _tiny_net()
    assert net.layer("conv").name == "conv"
    with pytest.raises(GraphError):
        net.layer("missing")


def test_output_blob():
    assert _tiny_net().output_blob == "prob"
    with pytest.raises(GraphError):
        _ = Network("n", "d", BlobShape(1, 1, 1, 1)).output_blob


def test_infer_shapes():
    net = _tiny_net()
    shapes = net.infer_shapes()
    assert shapes["conv"] == BlobShape(1, 3, 4, 4)
    assert shapes["prob"] == BlobShape(1, 3, 4, 4)


def test_infer_shapes_with_batch():
    shapes = _tiny_net().infer_shapes(batch=8)
    assert shapes["prob"].n == 8


def test_forward_shapes_and_softmax():
    net = _tiny_net()
    x = np.random.default_rng(0).normal(size=(2, 2, 4, 4))
    out = net.forward(x)
    assert out.shape == (2, 3, 4, 4)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)


def test_forward_rejects_bad_geometry():
    net = _tiny_net()
    with pytest.raises(ShapeError):
        net.forward(np.zeros((1, 2, 5, 5)))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 4, 4)))


def test_forward_fp16_differs_from_fp32():
    net = _tiny_net()
    rng = np.random.default_rng(1)
    net.layer("conv").set_params(
        weight=rng.normal(size=(3, 2, 3, 3)).astype(np.float32) * 0.3,
        bias=rng.normal(size=3).astype(np.float32))
    net.invalidate_weight_cache()
    x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
    out32 = net.forward(x, PrecisionPolicy.fp32())
    out16 = net.forward(x, PrecisionPolicy.fp16())
    assert out32.shape == out16.shape
    assert not np.array_equal(out32, out16)   # fp16 rounding visible
    np.testing.assert_allclose(out32, out16, atol=5e-3)  # but small


def test_fp16_weight_cache_and_invalidation():
    net = _tiny_net()
    rng = np.random.default_rng(2)
    w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    net.layer("conv").set_params(weight=w)
    net.invalidate_weight_cache()
    x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
    out_a = net.forward(x, PrecisionPolicy.fp16())
    # Mutate weights without invalidating: cache returns stale values.
    net.layer("conv").params["weight"] = w * 2
    out_stale = net.forward(x, PrecisionPolicy.fp16())
    np.testing.assert_array_equal(out_a, out_stale)
    net.invalidate_weight_cache()
    out_fresh = net.forward(x, PrecisionPolicy.fp16())
    assert not np.array_equal(out_a, out_fresh)


def test_forward_params_restored_after_fp16_run():
    net = _tiny_net()
    w = np.full((3, 2, 3, 3), 0.1, dtype=np.float32)
    net.layer("conv").set_params(weight=w)
    net.invalidate_weight_cache()
    net.forward(np.zeros((1, 2, 4, 4)), PrecisionPolicy.fp16())
    # Original FP32 weights must be back in place after the pass.
    np.testing.assert_array_equal(net.layer("conv").params["weight"], w)


def test_forward_with_blobs_capture():
    net = _tiny_net()
    x = np.random.default_rng(3).normal(size=(1, 2, 4, 4))
    out, captured = net.forward_with_blobs(x, capture=["conv"])
    assert "conv" in captured
    assert captured["conv"].shape == (1, 3, 4, 4)
    np.testing.assert_array_equal(out, net.forward(x))


def test_predict_returns_labels_and_confidences():
    net = _tiny_net()
    x = np.random.default_rng(4).normal(size=(5, 2, 4, 4))
    labels, confs = net.predict(x)
    assert labels.shape == (5,)
    assert confs.shape == (5,)
    assert np.all((confs > 0) & (confs <= 1))


def test_layer_costs_and_total_macs():
    net = _tiny_net()
    costs = net.layer_costs(batch=2)
    assert [c.name for c in costs] == ["conv", "relu", "prob"]
    conv_cost = costs[0]
    # 2 * 3 * 4 * 4 outputs, each 2*3*3 MACs
    assert conv_cost.macs == 2 * 3 * 16 * 18
    assert net.total_macs(batch=2) == sum(c.macs for c in costs)
    assert net.total_macs(batch=2) == 2 * net.total_macs(batch=1)


def test_total_param_bytes_precision():
    net = _tiny_net()
    assert (sum(layer.param_bytes(4) for layer in net.layers)
            == 2 * sum(layer.param_bytes(2) for layer in net.layers))
