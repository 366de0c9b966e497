"""IEEE 754 binary16 (half precision) emulation.

The NCSw framework converts input pixels from FP32 to FP16 using the
OpenEXR ``half`` class before shipping them to the NCS (paper §III); the
Myriad 2 then executes the whole network in FP16.  We emulate this
with :func:`round_fp16`, the per-activation operator: it gives the bits
of NumPy's ``float16`` round trip (IEEE 754 binary16, round to nearest
even, subnormals included) with float32 arithmetic alone.
"""

from __future__ import annotations

import numpy as np

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
