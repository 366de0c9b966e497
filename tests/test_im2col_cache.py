"""Index/scratch caching in the im2col path must never change values.

The gather indices depend only on the geometry key, so a cached hit
must produce byte-identical patches to a cold build — in every dtype
the lowering supports.  The same holds for conv2d_gemm's accumulation
dtype handling: the output dtype always follows the input, never a
silently promoted float64 from the bias.
"""

import numpy as np
import pytest

from repro.tensors import im2col
from repro.tensors.im2col import _index_cache, clear_patch_caches, conv2d_gemm


def _input(dtype, seed=0, shape=(2, 3, 9, 9)):
    rng = np.random.RandomState(seed)
    return rng.randn(*shape).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("kernel,stride,pad", [(3, 1, 1), (5, 2, 2),
                                               (1, 1, 0)])
def test_im2col_cached_equals_cold(dtype, kernel, stride, pad):
    x = _input(dtype)
    clear_patch_caches()
    cold = im2col(x, kernel, stride, pad)
    assert len(_index_cache) == 1
    warm = im2col(x, kernel, stride, pad)
    assert warm.dtype == cold.dtype == np.dtype(dtype)
    assert cold.tobytes() == warm.tobytes()


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


def test_index_cache_is_bounded():
    import importlib

    # The package re-exports the im2col *function* over the submodule
    # attribute, so fetch the module itself for its cache constants.
    mod = importlib.import_module("repro.tensors.im2col")

    clear_patch_caches()
    x = _input(np.float32, shape=(1, 1, 20, 20))
    for k in (1, 2, 3):
        for s in (1, 2):
            for p in range(k):  # pad must stay below the kernel
                im2col(x, k, s, p)
    assert 0 < len(mod._index_cache) <= mod._INDEX_CACHE_SIZE
    assert 0 <= len(mod._scratch_cache) <= mod._SCRATCH_CACHE_SIZE


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
