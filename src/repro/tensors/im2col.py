"""im2col convolution lowering.

Convolutions are lowered to GEMM by unfolding input patches into a
matrix — the strategy used by Caffe (and by the NCSDK's SHAVE kernels
for large filters).  The patch matrix is a strided window view of the
padded input: a read-only ``(N, C, K, K, OH, OW)`` view whose last two
strides step the window by ``stride`` rows and columns, reshaped to
``(N, C*K*K, OH*OW)``.  The reshape copies only where the window
layout demands it; a 1x1, stride-1, unpadded convolution gets a view
of its input and copies nothing.

Hot-path design (this module sits under every functional forward):

* Padded inputs are staged into a reusable per-shape scratch buffer —
  the zero border is written once when the buffer is created and only
  the interior is refreshed per call, replacing a full ``np.pad``.
  That buffer is the only cache here: the window geometry is a handful
  of strides, so nothing about it needs caching.
* :func:`conv2d_gemm` preallocates the GEMM output and folds the bias
  add into it, keeping the whole lowering at two materialised
  temporaries (patch matrix + output).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError
from repro.tensors.layout import conv_output_hw

#: Bounded LRU size.  Each scratch buffer is one padded activation
#: tensor, so keep few of them.
_SCRATCH_CACHE_SIZE = 16

_scratch_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()


def clear_patch_caches() -> None:
    """Drop the cached scratch buffers (for tests and benchmarks)."""
    _scratch_cache.clear()


def _padded_input(x: np.ndarray, pad: int) -> np.ndarray:
    """Stage *x* into a zero-bordered scratch buffer (reused per shape).

    The border is zeroed exactly once, when the buffer is allocated:
    every call overwrites only the interior, so the invariant holds
    across reuses.  Callers must copy out of the buffer (:func:`im2col`
    does) — the same buffer is returned for every call with this shape
    and dtype.
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
    """Unfold NCHW input into a (N, C*K*K, OH*OW) patch matrix.

    The result may be a read-only view of *x* (1x1, stride 1, no
    padding); it never shares memory with the padded scratch buffer.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects NCHW input, got ndim={x.ndim}")
    n, c, h, w = x.shape
    out_h, out_w = conv_output_hw(h, w, kernel, stride, pad)
    xp = _padded_input(x, pad) if pad > 0 else x
    sn, sc, sh, sw = xp.strides
    windows = as_strided(
        xp, shape=(n, c, kernel, kernel, out_h, out_w),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False)
    cols = windows.reshape(n, c * kernel * kernel, out_h * out_w)
    if pad > 0 and np.may_share_memory(cols, xp):
        # The next call with this shape overwrites the buffer.
        cols = cols.copy()
    return cols


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
