"""Separable max pooling must give the bits of the k*k window fold.

The reference below is the straightforward lowering: pad the input
with -inf (zeros for average pooling) far enough for every ceil-mode
window, then fold the k*k strided window views in (row, column)
order.  The layer's row-then-column running max has to match it
bit for bit -- including -inf, NaN and signed zeros, whose ties
resolve to the first element in that order -- at FP32 and FP16.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.pool import Pooling, PoolMethod
from repro.tensors.layout import pool_output_hw

SPECIALS = (0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan)


def reference_pool(x, k, stride, pad, method):
    n, c, h, w = x.shape
    oh, ow = pool_output_hw(h, w, k, stride, pad)
    fill = -np.inf if method is PoolMethod.MAX else 0.0
    xp = np.full((n, c, stride * (oh - 1) + k + h + 2 * pad,
                  stride * (ow - 1) + k + w + 2 * pad), fill, x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x

    def window(di, dj):
        return xp[:, :, di:di + stride * (oh - 1) + 1:stride,
                  dj:dj + stride * (ow - 1) + 1:stride]

    offsets = [(di, dj) for di in range(k) for dj in range(k)]
    if method is PoolMethod.MAX:
        out = np.array(window(0, 0))
        for di, dj in offsets[1:]:
            np.maximum(out, window(di, dj), out=out)
        return out
    stack = np.stack([window(di, dj) for di, dj in offsets])
    return stack.sum(axis=0) / np.float32(k * k)


@st.composite
def pool_cases(draw):
    k = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, k - 1))
    h = draw(st.integers(k, 9))
    w = draw(st.integers(k, 9))
    dtype = draw(st.sampled_from([np.float32, np.float16]))
    n_values = 2 * 2 * h * w
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from(SPECIALS),
                               min_size=n_values, max_size=n_values))
    else:
        values = draw(st.lists(
            st.floats(-4.0, 4.0, width=16) | st.sampled_from(SPECIALS),
            min_size=n_values, max_size=n_values))
    x = np.array(values, dtype=dtype).reshape(2, 2, h, w)
    return x, k, stride, pad


@given(pool_cases())
@settings(max_examples=300, deadline=None)
def test_separable_max_pool_equals_window_fold(case):
    x, k, stride, pad = case
    layer = Pooling("pool", "in", "out", method=PoolMethod.MAX,
                    kernel_size=k, stride=stride, pad=pad)
    got = layer.forward([x])[0]
    want = reference_pool(x, k, stride, pad, PoolMethod.MAX)
    assert got.dtype == want.dtype == x.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(pool_cases())
@settings(max_examples=100, deadline=None)
def test_average_pool_keeps_its_sum_order(case):
    x, k, stride, pad = case
    layer = Pooling("pool", "in", "out", method=PoolMethod.AVE,
                    kernel_size=k, stride=stride, pad=pad)
    with np.errstate(invalid="ignore", over="ignore"):
        got = layer.forward([x])[0]
        want = reference_pool(x, k, stride, pad, PoolMethod.AVE)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", list(PoolMethod))
def test_unpadded_pool_returns_a_fresh_array(method):
    # With pad 0 and windows inside the input the layer reads the input
    # in place; the output must still be its own buffer, since a later
    # in-place ReLU on it must not write through to the input.
    x = np.arange(2 * 3 * 8 * 8, dtype=np.float32).reshape(2, 3, 8, 8)
    before = x.copy()
    for k, stride in ((2, 2), (1, 1), (3, 1)):
        layer = Pooling("pool", "in", "out", method=method,
                        kernel_size=k, stride=stride)
        out = layer.forward([x])[0]
        assert not np.shares_memory(out, x)
        out[...] = -1.0
        assert x.tobytes() == before.tobytes()


def test_global_max_pool():
    x = np.random.default_rng(0).normal(size=(2, 4, 7, 7)).astype(
        np.float32)
    layer = Pooling("pool", "in", "out", method=PoolMethod.MAX,
                    global_pooling=True)
    out = layer.forward([x])[0]
    assert out.shape == (2, 4, 1, 1)
    assert out.ravel().tobytes() == x.max(axis=(2, 3)).ravel().tobytes()
