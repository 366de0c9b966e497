"""Unit tests for individual NN layers."""

import numpy as np
import pytest

from repro.errors import GraphError, ShapeError
from repro.nn import (
    LAYER_REGISTRY,
    LRN,
    Concat,
    Convolution,
    Dropout,
    InnerProduct,
    Pooling,
    PoolMethod,
    ReLU,
    Softmax,
)
from repro.tensors import BlobShape


# --- registry ----------------------------------------------------------------

def test_registry_contains_all_types():
    for name in ("Convolution", "ReLU", "Pooling", "LRN", "Concat",
                 "InnerProduct", "Softmax", "Dropout"):
        assert name in LAYER_REGISTRY


def test_layer_requires_name():
    with pytest.raises(GraphError):
        ReLU("", "a", "b")


# --- convolution -------------------------------------------------------------

def test_conv_shapes_and_params():
    conv = Convolution("c", "in", "out", num_output=8, kernel_size=3,
                       in_channels=4, stride=1, pad=1)
    out = conv.output_shapes([BlobShape(2, 4, 10, 10)])
    assert out[0] == BlobShape(2, 8, 10, 10)
    assert conv.params["weight"].shape == (8, 4, 3, 3)
    assert conv.param_count() == 8 * 4 * 9 + 8


def test_conv_forward_identity_kernel():
    conv = Convolution("c", "in", "out", num_output=2, kernel_size=1,
                       in_channels=2)
    w = np.zeros((2, 2, 1, 1), dtype=np.float32)
    w[0, 0], w[1, 1] = 1.0, 1.0
    conv.set_params(weight=w, bias=np.zeros(2, dtype=np.float32))
    x = np.random.default_rng(0).normal(
        size=(1, 2, 4, 4)).astype(np.float32)
    out = conv.forward([x])[0]
    np.testing.assert_allclose(out, x)


def test_conv_bias_applied():
    conv = Convolution("c", "in", "out", num_output=1, kernel_size=1,
                       in_channels=1)
    conv.set_params(weight=np.zeros((1, 1, 1, 1), dtype=np.float32),
                    bias=np.array([3.5], dtype=np.float32))
    out = conv.forward([np.zeros((1, 1, 2, 2), dtype=np.float32)])[0]
    assert np.all(out == 3.5)


def test_conv_macs():
    conv = Convolution("c", "in", "out", num_output=8, kernel_size=3,
                       in_channels=4)
    shape = BlobShape(1, 4, 10, 10)
    out = conv.output_shapes([shape])[0]
    assert conv.macs([shape]) == out.count * 4 * 9


def test_conv_invalid_num_output():
    with pytest.raises(ValueError):
        Convolution("c", "a", "b", num_output=0, kernel_size=1,
                    in_channels=1)


def test_conv_set_params_shape_check():
    conv = Convolution("c", "a", "b", num_output=2, kernel_size=3,
                       in_channels=1)
    with pytest.raises(ShapeError):
        conv.set_params(weight=np.zeros((2, 1, 5, 5), dtype=np.float32))
    with pytest.raises(GraphError):
        conv.set_params(gamma=np.zeros(2))


# --- relu ---------------------------------------------------------------------

def test_relu_clamps_negatives():
    r = ReLU("r", "a", "b")
    x = np.array([[-1.0, 2.0], [0.0, -3.0]], dtype=np.float32)
    out = r.forward([x])[0]
    np.testing.assert_array_equal(out, [[0, 2], [0, 0]])


def test_leaky_relu():
    r = ReLU("r", "a", "b", negative_slope=0.1)
    x = np.array([-10.0, 5.0], dtype=np.float32)
    out = r.forward([x])[0]
    np.testing.assert_allclose(out, [-1.0, 5.0])


def test_relu_shape_passthrough():
    r = ReLU("r", "a", "b")
    s = BlobShape(1, 3, 5, 5)
    assert r.output_shapes([s]) == [s]


# --- pooling ------------------------------------------------------------------

def test_max_pool_values():
    p = Pooling("p", "a", "b", method=PoolMethod.MAX, kernel_size=2,
                stride=2)
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    out = p.forward([x])[0]
    np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_ave_pool_values():
    p = Pooling("p", "a", "b", method=PoolMethod.AVE, kernel_size=2,
                stride=2)
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    out = p.forward([x])[0]
    np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_max_pool_overlapping_stride():
    # GoogLeNet-style 3x3/2 overlapping pool with ceil geometry.
    p = Pooling("p", "a", "b", method=PoolMethod.MAX, kernel_size=3,
                stride=2)
    x = np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5)
    out = p.forward([x])[0]
    assert out.shape == (1, 1, 2, 2)
    assert out[0, 0, 0, 0] == 12  # max of top-left 3x3 block
    assert out[0, 0, 1, 1] == 24


def test_max_pool_with_padding_ignores_pad():
    p = Pooling("p", "a", "b", method=PoolMethod.MAX, kernel_size=3,
                stride=1, pad=1)
    x = -np.ones((1, 1, 3, 3), dtype=np.float32)
    out = p.forward([x])[0]
    # Padding is -inf for max pooling, so corners still see only real
    # values.
    assert out.shape == (1, 1, 3, 3)
    assert np.all(out == -1)


def test_global_pooling_any_size():
    p = Pooling("p", "a", "b", method=PoolMethod.AVE,
                global_pooling=True)
    for size in (2, 4, 7):
        x = np.ones((1, 3, size, size), dtype=np.float32) * 2
        out = p.forward([x])[0]
        assert out.shape == (1, 3, 1, 1)
        np.testing.assert_allclose(out, 2.0)


def test_global_pooling_rejects_rect():
    p = Pooling("p", "a", "b", global_pooling=True)
    with pytest.raises(ShapeError):
        p.output_shapes([BlobShape(1, 1, 3, 4)])


def test_global_pooling_rejects_pad():
    with pytest.raises(ShapeError):
        Pooling("p", "a", "b", global_pooling=True, pad=1)


def test_pool_macs_positive():
    p = Pooling("p", "a", "b", kernel_size=3, stride=2)
    assert p.macs([BlobShape(1, 4, 8, 8)]) > 0


# --- LRN ------------------------------------------------------------------------

def _lrn_reference(x, local_size, alpha, beta, k):
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    half = local_size // 2
    for ci in range(c):
        lo, hi = max(0, ci - half), min(c, ci + half + 1)
        window = (x[:, lo:hi] ** 2).sum(axis=1)
        scale = (k + alpha / local_size * window) ** (-beta)
        out[:, ci] = x[:, ci] * scale
    return out


def test_lrn_matches_reference():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 8, 3, 3)).astype(np.float32)
    lrn = LRN("n", "a", "b", local_size=5, alpha=1e-4, beta=0.75)
    out = lrn.forward([x])[0]
    ref = _lrn_reference(x, 5, 1e-4, 0.75, 1.0)
    np.testing.assert_allclose(out, ref, rtol=1e-5)


def test_lrn_unit_input_scale():
    # For x = 1 everywhere: scale = (1 + alpha/n * n_window)^-beta.
    x = np.ones((1, 5, 1, 1), dtype=np.float32)
    lrn = LRN("n", "a", "b", local_size=5, alpha=5.0, beta=1.0)
    out = lrn.forward([x])[0]
    # Centre channel sees the full window of 5 ones: 1/(1 + 1*5) = wrong;
    # alpha/n = 1, window sum = 5 -> 1/(1+5) for centre channel.
    assert out[0, 2, 0, 0] == pytest.approx(1 / 6)
    # Edge channel sees only 3 ones: 1/(1+3).
    assert out[0, 0, 0, 0] == pytest.approx(1 / 4)


def test_lrn_rejects_even_local_size():
    with pytest.raises(ShapeError):
        LRN("n", "a", "b", local_size=4)


# --- concat ---------------------------------------------------------------------

def test_concat_channels():
    c = Concat("c", ["a", "b"], "out")
    x1 = np.ones((1, 2, 3, 3), dtype=np.float32)
    x2 = np.zeros((1, 3, 3, 3), dtype=np.float32)
    out = c.forward([x1, x2])[0]
    assert out.shape == (1, 5, 3, 3)
    assert out[0, 0, 0, 0] == 1 and out[0, 4, 0, 0] == 0


def test_concat_shape_inference():
    c = Concat("c", ["a", "b", "d"], "out")
    shapes = [BlobShape(2, 4, 7, 7)] * 3
    assert c.output_shapes(shapes)[0].c == 12


def test_concat_rejects_mismatched_spatial():
    c = Concat("c", ["a", "b"], "out")
    with pytest.raises(ShapeError):
        c.output_shapes([BlobShape(1, 2, 3, 3), BlobShape(1, 2, 4, 4)])


def test_concat_needs_two_inputs():
    with pytest.raises(ShapeError):
        Concat("c", ["a"], "out")


# --- inner product ----------------------------------------------------------------

def test_inner_product_forward():
    ip = InnerProduct("fc", "a", "b", num_output=2, num_input=3)
    ip.set_params(weight=np.array([[1, 0, 0], [0, 1, 1]],
                                  dtype=np.float32),
                  bias=np.array([0.5, -0.5], dtype=np.float32))
    x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32).reshape(1, 3, 1, 1)
    out = ip.forward([x])[0]
    np.testing.assert_allclose(out.ravel(), [1.5, 4.5])


def test_inner_product_shape_check():
    ip = InnerProduct("fc", "a", "b", num_output=2, num_input=12)
    assert ip.output_shapes(
        [BlobShape(4, 3, 2, 2)])[0] == BlobShape(4, 2, 1, 1)
    with pytest.raises(ShapeError):
        ip.output_shapes([BlobShape(1, 3, 3, 3)])


def test_inner_product_macs():
    ip = InnerProduct("fc", "a", "b", num_output=10, num_input=100)
    assert ip.macs([BlobShape(2, 100, 1, 1)]) == 2 * 10 * 100


# --- softmax --------------------------------------------------------------------------

def test_softmax_sums_to_one():
    sm = Softmax("s", "a", "b")
    x = np.random.default_rng(1).normal(
        size=(3, 7, 1, 1)).astype(np.float32)
    out = sm.forward([x])[0]
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-6)
    assert np.all(out >= 0)


def test_softmax_stable_for_large_logits():
    sm = Softmax("s", "a", "b")
    x = np.array([[1000.0, 1001.0]], dtype=np.float32).reshape(1, 2, 1, 1)
    out = sm.forward([x])[0]
    assert np.all(np.isfinite(out))
    assert out[0, 1, 0, 0] > out[0, 0, 0, 0]


def test_softmax_preserves_argmax():
    sm = Softmax("s", "a", "b")
    x = np.array([[0.1, 3.0, -2.0]], dtype=np.float32).reshape(1, 3, 1, 1)
    out = sm.forward([x])[0]
    assert out.argmax() == 1


# --- dropout -----------------------------------------------------------------------------

def test_dropout_is_identity():
    d = Dropout("d", "a", "b", dropout_ratio=0.4)
    x = np.random.default_rng(2).normal(size=(1, 4, 2, 2))
    out = d.forward([x.astype(np.float32)])[0]
    np.testing.assert_array_equal(out, x.astype(np.float32))


def test_dropout_ratio_validation():
    with pytest.raises(ValueError):
        Dropout("d", "a", "b", dropout_ratio=1.0)
    with pytest.raises(ValueError):
        Dropout("d", "a", "b", dropout_ratio=-0.1)
