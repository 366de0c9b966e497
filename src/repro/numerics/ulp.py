"""ULP and relative-error analysis between precision variants.

Used by the error-rate experiments (Fig. 7) and their tests to quantify
how far the FP16 execution path drifts from the FP32 reference at the
level of individual tensor elements.
"""

from __future__ import annotations

import numpy as np


def _to_ordered_int(x: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Map floats to a monotone integer lattice (two's-complement trick)."""
    info = {np.dtype(np.float16): np.int16,
            np.dtype(np.float32): np.int32,
            np.dtype(np.float64): np.int64}[np.dtype(dtype)]
    bits = np.asarray(x, dtype=dtype).view(info).astype(np.int64)
    # Negative floats order backwards in raw bit space; reflect them so
    # the mapping is monotone and -0.0 coincides with +0.0.
    sign_bit = np.int64(1) << (np.dtype(info).itemsize * 8 - 1)
    return np.where(bits < 0, -sign_bit - bits, bits)


def ulp_distance(a: np.ndarray, b: np.ndarray,
                 dtype: np.dtype | type = np.float16) -> np.ndarray:
    """Element-wise ULP distance between *a* and *b* in *dtype*'s lattice.

    Both inputs are first rounded to *dtype*.  NaN positions yield the
    maximum int64 value so they are impossible to miss in assertions.
    """
    dt = np.dtype(dtype)
    aa = np.asarray(a, dtype=np.float64).astype(dt)
    bb = np.asarray(b, dtype=np.float64).astype(dt)
    dist = np.abs(_to_ordered_int(aa, dt) - _to_ordered_int(bb, dt))
    nan_mask = np.isnan(aa.astype(np.float64)) | np.isnan(
        bb.astype(np.float64))
    return np.where(nan_mask, np.iinfo(np.int64).max, dist)


def relative_error(approx: np.ndarray, exact: np.ndarray,
                   eps: float = 1e-12) -> np.ndarray:
    """Element-wise |approx - exact| / max(|exact|, eps)."""
    a = np.asarray(approx, dtype=np.float64)
    e = np.asarray(exact, dtype=np.float64)
    return np.abs(a - e) / np.maximum(np.abs(e), eps)
