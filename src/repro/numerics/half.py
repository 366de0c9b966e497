"""IEEE 754 binary16 (half precision) emulation.

The NCSw framework converts input pixels from FP32 to FP16 using the
OpenEXR ``half`` class before shipping them to the NCS (paper §III); the
Myriad 2 then executes the whole network in FP16.  We emulate this with
NumPy's ``float16``, which implements the same IEEE 754 binary16 format
with round-to-nearest-even, and wrap it so precision handling is explicit
and testable (saturation semantics, subnormal behaviour, ULP structure).
:func:`round_fp16`, the per-activation operator, gives the bits of that
format's rounding with float32 arithmetic alone.
"""

from __future__ import annotations

import numpy as np

#: Largest finite binary16 value (65504.0).
FP16_MAX = float(np.finfo(np.float16).max)
#: Smallest positive *normal* binary16 value (2^-14).
FP16_MIN_NORMAL = float(np.finfo(np.float16).tiny)
#: Smallest positive subnormal binary16 value (2^-24).
FP16_MIN_SUBNORMAL = float(np.nextafter(np.float16(0), np.float16(1)))
#: Machine epsilon of binary16 (2^-10).
FP16_EPS = float(np.finfo(np.float16).eps)


def to_half(x: np.ndarray, saturate: bool = False) -> np.ndarray:
    """Convert an array to binary16.

    With ``saturate=True``, values whose magnitude exceeds
    :data:`FP16_MAX` clamp to ±FP16_MAX instead of overflowing to ±inf —
    this mirrors the saturating store mode of the SHAVE VAU.  NaNs pass
    through unchanged in both modes.
    """
    arr = np.asarray(x, dtype=np.float32)
    if saturate:
        clipped = np.clip(arr, -FP16_MAX, FP16_MAX)
        # clip propagates NaN already, so no special-casing needed.
        return clipped.astype(np.float16)
    with np.errstate(over="ignore"):
        return arr.astype(np.float16)


def from_half(x: np.ndarray) -> np.ndarray:
    """Widen a binary16 array back to float32 (exact, no rounding)."""
    return np.asarray(x, dtype=np.float16).astype(np.float32)


#: Bit masks of a float32: sign, exponent field, and everything else.
_SIGN = np.uint32(0x8000_0000)
_EXPONENT = np.uint32(0x7F80_0000)
_MAGNITUDE = np.uint32(0x7FFF_FFFF)
#: Exponent fields of 2^-14 (the smallest binary16 binade, whose ulp
#: the subnormals share) and 2^16 (past the largest finite binade).
_BINADE_LO = np.uint32((127 - 14) << 23)
_BINADE_HI = np.uint32((127 + 16) << 23)
#: Adds 13 to an exponent field: 2^e -> 2^(e+13), whose float32 ulp
#: is the binary16 ulp of binade e (23 - 10 = 13 fraction bits apart).
_ULP_SHIFT = np.uint32(13 << 23)
#: 2^16 * 2^112 = 2^128 overflows float32; 65504 * 2^112 does not.
_OVERFLOW_UP = np.float32(2.0 ** 112)
_OVERFLOW_DOWN = np.float32(2.0 ** -112)


def round_fp16(x: np.ndarray) -> np.ndarray:
    """Round through binary16 and widen back to float32.

    This is the *quantisation* operator used by the FP16 execution
    policy: every intermediate tensor of a VPU layer passes through it,
    so rounding error accumulates exactly as it would on hardware that
    stores activations in half precision.

    The result has the bits of ``x.astype(float16).astype(float32)``
    (NaN stays NaN), computed in float32 arithmetic because NumPy's
    narrowing cast is not vectorised: adding ``m``, a power of two
    whose float32 ulp is the binary16 ulp of ``|x|``'s binade, rounds
    ``|x|`` to nearest-even at that ulp, subnormals included, and
    subtracting ``m`` again is exact.  A round trip through 2^112
    turns results of 2^16 and above into inf, and the sign bit of
    ``x`` is copied back last so that ±0 and values that round to
    zero keep their sign.  Every step writes to an explicit buffer so
    a 0-d input stays an array.
    """
    arr = np.asarray(x, dtype=np.float32)
    bits = arr.view(np.uint32)
    out = np.empty_like(arr)
    mag = out.view(np.uint32)
    np.bitwise_and(bits, _MAGNITUDE, out=mag)
    m = np.empty(arr.shape, dtype=np.uint32)
    np.bitwise_and(bits, _EXPONENT, out=m)
    np.clip(m, _BINADE_LO, _BINADE_HI, out=m)
    m += _ULP_SHIFT
    mf = m.view(np.float32)
    # Overflow to inf is the intent; a signalling NaN input raises
    # "invalid", which the cast it replaces does not.
    with np.errstate(over="ignore", invalid="ignore"):
        out += mf
        out -= mf
        out *= _OVERFLOW_UP
    out *= _OVERFLOW_DOWN
    np.bitwise_and(bits, _SIGN, out=m)
    mag |= m
    return out


def is_representable_fp16(x: float) -> bool:
    """True if the scalar converts to binary16 and back without error."""
    if np.isnan(x):
        return True  # NaN is representable (payload aside)
    return float(round_fp16(np.float32(x))) == float(np.float32(x))


def quantization_error(x: np.ndarray) -> np.ndarray:
    """Absolute error introduced by a round-trip through binary16."""
    arr = np.asarray(x, dtype=np.float32)
    return np.abs(arr - round_fp16(arr))


def dynamic_range_bits(x: np.ndarray) -> float:
    """log2(max|x| / min nonzero |x|) — how much of FP16's range is used.

    Useful to diagnose when a tensor's dynamic range exceeds what
    binary16 can hold (≈ 40 bits from subnormal min to max).
    """
    arr = np.abs(np.asarray(x, dtype=np.float64)).ravel()
    nz = arr[arr > 0]
    if nz.size == 0:
        return 0.0
    return float(np.log2(nz.max() / nz.min()))
