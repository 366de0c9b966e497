"""The im2col lowering is a strided window view of the padded input.

Its patch matrix must equal a per-window loop for every geometry the
networks use, in every dtype the lowering supports, whether the input
is contiguous or a channel slice.  A 1x1, stride-1, unpadded lowering
is a view of its input; a padded one never shares memory with the
reused scratch buffer, so a later call cannot overwrite an earlier
result.  The same holds for conv2d_gemm's accumulation dtype handling:
the output dtype always follows the input, never a silently promoted
float64 from the bias.
"""

import importlib

import numpy as np
import pytest

from repro.tensors import im2col
from repro.tensors.im2col import clear_patch_caches, conv2d_gemm

# The package re-exports the im2col *function* over the submodule
# attribute, so fetch the module itself for its scratch cache.
_MOD = importlib.import_module("repro.tensors.im2col")


def _input(dtype, seed=0, shape=(2, 3, 9, 9)):
    rng = np.random.RandomState(seed)
    return rng.randn(*shape).astype(dtype)


def _reference(x, kernel, stride, pad):
    """One column per output position, one row per (channel, ky, kx)."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    out = np.empty((n, c * kernel * kernel, oh * ow), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            window = xp[:, :, i * stride:i * stride + kernel,
                        j * stride:j * stride + kernel]
            out[:, :, i * ow + j] = window.reshape(n, -1)
    return out


GEOMETRIES = [(1, 1, 0), (1, 2, 0), (3, 1, 0), (3, 1, 1), (3, 2, 1),
              (5, 1, 2), (5, 2, 2), (7, 2, 3), (7, 1, 0)]


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("kernel,stride,pad", GEOMETRIES)
def test_im2col_matches_window_loop(dtype, kernel, stride, pad):
    x = _input(dtype, shape=(2, 3, 11, 9))
    got = im2col(x, kernel, stride, pad)
    assert got.dtype == np.dtype(dtype)
    assert got.tobytes() == _reference(x, kernel, stride, pad).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("kernel,stride,pad", GEOMETRIES)
def test_im2col_of_a_channel_slice(dtype, kernel, stride, pad):
    # The grouped Convolution.forward passes x[:, g*cin:(g+1)*cin].
    x = _input(dtype, shape=(2, 8, 10, 10))[:, 2:5]
    assert not x.flags.c_contiguous
    got = im2col(x, kernel, stride, pad)
    assert got.tobytes() == _reference(x, kernel, stride, pad).tobytes()


@pytest.mark.parametrize("kernel,pad", [(1, 0), (3, 1), (5, 2)])
def test_im2col_of_a_1x1_map(kernel, pad):
    x = _input(np.float32, shape=(3, 6, 1, 1))
    got = im2col(x, kernel, 1, pad)
    assert got.shape == (3, 6 * kernel * kernel, 1)
    assert got.tobytes() == _reference(x, kernel, 1, pad).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("kernel,stride,pad", [(3, 1, 1), (5, 2, 2),
                                               (1, 1, 0)])
def test_im2col_cached_equals_cold(dtype, kernel, stride, pad):
    x = _input(dtype)
    clear_patch_caches()
    cold = im2col(x, kernel, stride, pad)
    warm = im2col(x, kernel, stride, pad)
    assert warm.dtype == cold.dtype == np.dtype(dtype)
    assert cold.tobytes() == warm.tobytes()


def test_pointwise_lowering_is_a_view_of_the_input():
    x = _input(np.float32)
    cols = im2col(x, 1, 1, 0)
    assert np.shares_memory(cols, x)
    assert not cols.flags.writeable


@pytest.mark.parametrize("shape,kernel,stride,pad", [
    ((2, 4, 1, 1), 3, 1, 1),   # the window is the whole padded buffer
    ((2, 3, 9, 9), 3, 1, 1),
    ((2, 3, 9, 9), 5, 2, 2),
    ((1, 2, 2, 2), 3, 1, 1),
])
def test_padded_lowering_never_aliases_the_scratch_buffer(
        shape, kernel, stride, pad):
    x = _input(np.float32, shape=shape)
    cols = im2col(x, kernel, stride, pad)
    assert _MOD._scratch_cache
    assert not any(np.shares_memory(cols, buf)
                   for buf in _MOD._scratch_cache.values())


def test_a_later_call_does_not_overwrite_an_earlier_result():
    # (2, 4, 1, 1) padded by 1 is one 3x3 window per channel, exactly
    # the scratch buffer's layout: a view of it would change under the
    # second call.
    clear_patch_caches()
    ones = np.ones((2, 4, 1, 1), dtype=np.float32)
    first = im2col(ones, 3, 1, 1)
    im2col(7 * ones, 3, 1, 1)
    assert first[0, 4, 0] == 1.0  # the centre tap of channel 0
    assert first.tobytes() == _reference(ones, 3, 1, 1).tobytes()


def test_scratch_buffer_reuse_does_not_leak_between_inputs():
    # The padded scratch buffer is reused across calls; a second call
    # with different data must not see remnants of the first.
    a = _input(np.float32, seed=1)
    b = _input(np.float32, seed=2)
    clear_patch_caches()
    cols_a1 = im2col(a, 3, 1, 1)
    im2col(b, 3, 1, 1)  # overwrites the scratch interior
    cols_a2 = im2col(a, 3, 1, 1)
    assert cols_a1.tobytes() == cols_a2.tobytes()


def test_scratch_cache_is_bounded():
    clear_patch_caches()
    for size in range(4, 4 + 2 * _MOD._SCRATCH_CACHE_SIZE):
        im2col(_input(np.float32, shape=(1, 1, size, size)), 3, 1, 1)
    assert len(_MOD._scratch_cache) == _MOD._SCRATCH_CACHE_SIZE


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_conv2d_gemm_output_dtype_follows_input(dtype):
    x = _input(dtype, shape=(2, 3, 8, 8))
    rng = np.random.RandomState(3)
    w = rng.randn(4, 3, 3, 3).astype(dtype)
    # A float64 bias must not leak float64 into the activations.
    bias = rng.randn(4).astype(np.float64)
    out = conv2d_gemm(x, w, bias, stride=1, pad=1)
    assert out.dtype == np.dtype(dtype)


def test_conv2d_gemm_float16_matches_float32_reference():
    x32 = _input(np.float32, shape=(1, 2, 6, 6))
    rng = np.random.RandomState(4)
    w32 = rng.randn(3, 2, 3, 3).astype(np.float32)
    b32 = rng.randn(3).astype(np.float32)
    ref = conv2d_gemm(x32, w32, b32, stride=1, pad=1)
    out16 = conv2d_gemm(x32.astype(np.float16), w32.astype(np.float16),
                        b32.astype(np.float16), stride=1, pad=1)
    assert out16.dtype == np.float16
    # Half precision carries ~3 decimal digits; the values must agree
    # to fp16 resolution, proving the lowering itself is unchanged.
    np.testing.assert_allclose(out16.astype(np.float32), ref,
                               rtol=5e-3, atol=5e-3)
