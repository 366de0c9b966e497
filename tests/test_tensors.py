"""Tests for tensor substrate: layout math and im2col."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.tensors import (
    BlobShape,
    conv_output_hw,
    im2col,
    pool_output_hw,
)
from repro.tensors.im2col import conv2d_gemm


# --- layout ---------------------------------------------------------------

def test_blobshape_count_and_bytes():
    s = BlobShape(8, 3, 224, 224)
    assert s.count == 8 * 3 * 224 * 224
    assert s.nbytes(2) == s.count * 2
    assert (s.n, s.c, s.h, s.w) == (8, 3, 224, 224)
    assert str(s) == "8x3x224x224"


def test_blobshape_validation():
    with pytest.raises(ShapeError):
        BlobShape(0, 3, 4, 4)
    with pytest.raises(ShapeError):
        BlobShape(1, 3, -1, 4)


def test_blobshape_with_batch():
    s = BlobShape(1, 3, 224, 224).with_batch(8)
    assert s.n == 8 and s.c == 3


def test_conv_output_googlenet_stem():
    # GoogLeNet conv1: 224x224, k=7, s=2, p=3 -> 112x112
    assert conv_output_hw(224, 224, 7, 2, 3) == (112, 112)
    # conv2 3x3: 56x56, k=3, s=1, p=1 -> 56x56
    assert conv_output_hw(56, 56, 3, 1, 1) == (56, 56)
    # 1x1 conv preserves size
    assert conv_output_hw(28, 28, 1, 1, 0) == (28, 28)


def test_pool_output_googlenet():
    # pool1: 112x112, k=3, s=2, p=0 -> Caffe ceil -> 56x56
    assert pool_output_hw(112, 112, 3, 2, 0) == (56, 56)
    # pool after inception 3: 28x28, k=3, s=2 -> 14x14
    assert pool_output_hw(28, 28, 3, 2, 0) == (14, 14)
    # global avg pool 7x7, k=7, s=1 -> 1x1
    assert pool_output_hw(7, 7, 7, 1, 0) == (1, 1)


def test_pool_ceil_vs_conv_floor():
    # 12 input, k=3, s=2: conv floor -> 5, pool ceil -> 6
    assert conv_output_hw(12, 12, 3, 2, 0) == (5, 5)
    assert pool_output_hw(12, 12, 3, 2, 0) == (6, 6)


def test_pool_pad_clipping():
    # Caffe clips windows starting in the trailing pad region.
    out_h, _ = pool_output_hw(4, 4, 2, 2, 1)
    # ceil((4+2-2)/2)+1 = 3; window 2 starts at 4 >= 4+1? no (4 < 5) -> 3
    assert out_h == 3


def test_geometry_validation():
    with pytest.raises(ShapeError):
        conv_output_hw(0, 4, 3, 1, 0)
    with pytest.raises(ShapeError):
        conv_output_hw(4, 4, 0, 1, 0)
    with pytest.raises(ShapeError):
        conv_output_hw(4, 4, 3, 0, 0)
    with pytest.raises(ShapeError):
        conv_output_hw(4, 4, 3, 1, -1)
    with pytest.raises(ShapeError):
        conv_output_hw(4, 4, 3, 1, 3)  # pad >= kernel
    with pytest.raises(ShapeError):
        conv_output_hw(2, 2, 3, 1, 0)  # empty output


# --- im2col ----------------------------------------------------------------

def _reference_conv(x, w, b, stride, pad):
    """Naive direct convolution for cross-validation."""
    n, c, h, wd = x.shape
    k_out, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, k_out, oh, ow), dtype=np.float64)
    for ni in range(n):
        for ko in range(k_out):
            for i in range(oh):
                for j in range(ow):
                    region = xp[ni, :, i * stride:i * stride + kh,
                                j * stride:j * stride + kw]
                    out[ni, ko, i, j] = np.sum(region * w[ko]) + b[ko]
    return out.astype(np.float32)


def test_im2col_shape():
    x = np.arange(2 * 3 * 5 * 5, dtype=np.float32).reshape(2, 3, 5, 5)
    cols = im2col(x, kernel=3, stride=1, pad=0)
    assert cols.shape == (2, 3 * 9, 9)


def test_im2col_known_values():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    cols = im2col(x, kernel=2, stride=2, pad=0)
    # First patch is the top-left 2x2 block.
    assert cols[0, :, 0].tolist() == [0, 1, 4, 5]
    # Last patch is the bottom-right 2x2 block.
    assert cols[0, :, -1].tolist() == [10, 11, 14, 15]


def test_im2col_requires_4d():
    with pytest.raises(ShapeError):
        im2col(np.zeros((3, 5, 5)), 3, 1, 0)


def test_conv2d_gemm_matches_reference():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    for stride, pad in [(1, 0), (1, 1), (2, 1), (2, 0)]:
        fast = conv2d_gemm(x, w, b, stride, pad)
        ref = _reference_conv(x, w, b, stride, pad)
        np.testing.assert_allclose(fast, ref, rtol=1e-4, atol=1e-4)


def test_conv2d_gemm_1x1():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 6, 4, 4)).astype(np.float32)
    w = rng.normal(size=(2, 6, 1, 1)).astype(np.float32)
    b = np.zeros(2, dtype=np.float32)
    out = conv2d_gemm(x, w, b, 1, 0)
    # 1x1 conv is a channel-mixing matmul at each pixel.
    expected = np.einsum("kc,nchw->nkhw", w[:, :, 0, 0], x)
    np.testing.assert_allclose(out, expected, rtol=1e-5)


def test_conv2d_gemm_channel_mismatch():
    x = np.zeros((1, 3, 4, 4), dtype=np.float32)
    w = np.zeros((2, 4, 3, 3), dtype=np.float32)
    with pytest.raises(ShapeError):
        conv2d_gemm(x, w, np.zeros(2, dtype=np.float32), 1, 0)


def test_conv2d_gemm_rect_kernel_rejected():
    x = np.zeros((1, 3, 4, 4), dtype=np.float32)
    w = np.zeros((2, 3, 3, 2), dtype=np.float32)
    with pytest.raises(ShapeError):
        conv2d_gemm(x, w, np.zeros(2, dtype=np.float32), 1, 0)


@given(st.integers(4, 10), st.integers(1, 3), st.integers(1, 2),
       st.integers(0, 1), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_property_conv_gemm_equals_direct(size, kernel, stride, pad, cin):
    if pad >= kernel or size + 2 * pad < kernel:
        return
    rng = np.random.default_rng(size * 100 + kernel * 10 + stride)
    x = rng.normal(size=(1, cin, size, size)).astype(np.float32)
    w = rng.normal(size=(2, cin, kernel, kernel)).astype(np.float32)
    b = rng.normal(size=2).astype(np.float32)
    fast = conv2d_gemm(x, w, b, stride, pad)
    ref = _reference_conv(x, w, b, stride, pad)
    np.testing.assert_allclose(fast, ref, rtol=1e-3, atol=1e-4)
