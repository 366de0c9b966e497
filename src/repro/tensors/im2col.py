"""im2col convolution lowering.

Convolutions are lowered to GEMM by unfolding input patches into a
matrix — the strategy used by Caffe (and by the NCSDK's SHAVE kernels
for large filters).  The implementation is fully vectorised: patch
indices are computed once with broadcasting and the gather is a single
``take`` over the flattened padded input.

Hot-path design (this module sits under every functional forward):

* Patch index arrays depend only on ``(c, h, w, kernel, stride, pad)``
  and are cached in a bounded LRU (Caffe computes its im2col buffer
  geometry once per layer for the same reason).
* Padded inputs are staged into a reusable per-shape scratch buffer —
  the zero border is written once when the buffer is created and only
  the interior is refreshed per call, replacing a full ``np.pad``.
* :func:`conv2d_gemm` preallocates the GEMM output and folds the bias
  add into it, keeping the whole lowering at two materialised
  temporaries (patch matrix + output).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import ShapeError
from repro.tensors.layout import conv_output_hw

#: Bounded LRU sizes.  GoogLeNet at paper geometry has ~60 distinct
#: convolution configurations; 128 holds every network in the zoo
#: without thrash while bounding memory on pathological workloads.
_INDEX_CACHE_SIZE = 128
#: Scratch buffers are heavier (one padded activation tensor each),
#: so keep fewer of them.
_SCRATCH_CACHE_SIZE = 16

_index_cache: OrderedDict[tuple, tuple[np.ndarray, int, int]] = \
    OrderedDict()
_scratch_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()


def clear_patch_caches() -> None:
    """Drop cached patch indices and scratch buffers (for tests)."""
    _index_cache.clear()
    _scratch_cache.clear()


def _flat_patch_indices(c: int, h: int, w: int, kernel: int,
                        stride: int, pad: int
                        ) -> tuple[np.ndarray, int, int]:
    """Cached flat indices into the flattened padded (C, HP, WP) volume.

    Returns ``(flat, out_h, out_w)`` where ``flat`` has shape
    ``(C*K*K, OH*OW)`` and indexes ``x_padded.reshape(n, -1)``.
    """
    key = (c, h, w, kernel, stride, pad)
    cached = _index_cache.get(key)
    if cached is not None:
        _index_cache.move_to_end(key)
        return cached

    out_h, out_w = conv_output_hw(h, w, kernel, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad

    # Row index of each element within a patch, replicated per channel.
    i0 = np.repeat(np.arange(kernel), kernel)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)

    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    chans = np.repeat(np.arange(c), kernel * kernel).reshape(-1, 1)
    flat = (chans * hp + rows) * wp + cols
    if flat.size and int(flat.max()) < np.iinfo(np.int32).max:
        flat = flat.astype(np.int32)  # halves cache memory

    _index_cache[key] = (flat, out_h, out_w)
    while len(_index_cache) > _INDEX_CACHE_SIZE:
        _index_cache.popitem(last=False)
    return flat, out_h, out_w


def _padded_input(x: np.ndarray, pad: int) -> np.ndarray:
    """Stage *x* into a zero-bordered scratch buffer (reused per shape).

    The border is zeroed exactly once, when the buffer is allocated:
    every call overwrites only the interior, so the invariant holds
    across reuses.  Callers must copy out of the buffer (the im2col
    gather does) — the same buffer is returned for every call with
    this shape and dtype.
    """
    n, c, h, w = x.shape
    key = (n, c, h, w, pad, x.dtype.str)
    buf = _scratch_cache.get(key)
    if buf is None:
        buf = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        _scratch_cache[key] = buf
        while len(_scratch_cache) > _SCRATCH_CACHE_SIZE:
            _scratch_cache.popitem(last=False)
    else:
        _scratch_cache.move_to_end(key)
    buf[:, :, pad:pad + h, pad:pad + w] = x
    return buf


def im2col(x: np.ndarray, kernel: int, stride: int,
           pad: int) -> np.ndarray:
    """Unfold NCHW input into a (N, C*K*K, OH*OW) patch matrix."""
    if x.ndim != 4:
        raise ShapeError(f"im2col expects NCHW input, got ndim={x.ndim}")
    n, c, h, w = x.shape
    flat, _, _ = _flat_patch_indices(c, h, w, kernel, stride, pad)
    xp = _padded_input(x, pad) if pad > 0 else x
    flat_view = np.ascontiguousarray(xp).reshape(n, -1)
    return flat_view.take(flat.ravel(), axis=1).reshape(
        n, flat.shape[0], flat.shape[1])


def conv2d_gemm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                stride: int, pad: int) -> np.ndarray:
    """Convolution via im2col + GEMM.

    The output dtype always equals the input dtype: the GEMM runs in
    the promoted precision of ``(x, weight)`` and the bias is cast to
    the output dtype before the in-place add, so a float16 input can
    never silently promote through float32/float64 bias broadcasting.

    Parameters
    ----------
    x:
        Input, NCHW ``(N, C, H, W)``, float32 or float16.
    weight:
        Filters ``(K_out, C, KH, KW)`` with KH == KW.
    bias:
        Per-output-channel bias ``(K_out,)``.
    """
    k_out, c_in, kh, kw = weight.shape
    if kh != kw:
        raise ShapeError(f"only square kernels supported, got {kh}x{kw}")
    if x.shape[1] != c_in:
        raise ShapeError(
            f"input channels {x.shape[1]} != filter channels {c_in}")
    n = x.shape[0]
    out_h, out_w = conv_output_hw(x.shape[2], x.shape[3], kh, stride, pad)

    patches = im2col(x, kh, stride, pad)          # (N, C*K*K, OH*OW)
    wmat = weight.reshape(k_out, -1)              # (K_out, C*K*K)
    # (K_out, C*K*K) @ (N, C*K*K, OH*OW) -> (N, K_out, OH*OW), into a
    # preallocated accumulator in the promoted working precision.
    acc_dtype = np.promote_types(x.dtype, wmat.dtype)
    out = np.empty((n, k_out, patches.shape[2]), dtype=acc_dtype)
    np.matmul(wmat.astype(acc_dtype, copy=False),
              patches.astype(acc_dtype, copy=False), out=out)
    out = out.astype(x.dtype, copy=False)
    out += bias.reshape(1, -1, 1).astype(x.dtype, copy=False)
    assert out.dtype == x.dtype, (
        f"conv2d_gemm output dtype {out.dtype} != input {x.dtype}")
    return out.reshape(n, k_out, out_h, out_w)
