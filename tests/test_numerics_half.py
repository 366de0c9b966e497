"""Unit + property tests for FP16 emulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics import round_fp16

#: Smallest positive normal and subnormal binary16 values.
FP16_MIN_NORMAL = 2.0 ** -14
FP16_MIN_SUBNORMAL = 2.0 ** -24


def test_round_trip_exact_for_small_integers():
    x = np.arange(-512, 513, dtype=np.float32)
    assert np.array_equal(round_fp16(x), x)


def test_overflow_to_inf_without_saturation():
    out = round_fp16(np.array([1e6, -1e6], dtype=np.float32))
    assert np.isinf(out[0]) and out[0] > 0
    assert np.isinf(out[1]) and out[1] < 0


def test_round_fp16_idempotent():
    x = np.random.default_rng(0).normal(size=100).astype(np.float32)
    once = round_fp16(x)
    assert np.array_equal(round_fp16(once), once)


def test_round_fp16_returns_float32():
    assert round_fp16(np.array([1.1])).dtype == np.float32


def test_round_to_nearest_even():
    # 2049 is exactly between fp16-representable 2048 and 2050;
    # ties go to the even significand (2048).
    assert float(round_fp16(np.float32(2049.0))) == 2048.0
    # 2051 is between 2050 and 2052 -> even is 2052.
    assert float(round_fp16(np.float32(2051.0))) == 2052.0


def test_is_representable():
    def representable(v):
        return round_fp16(np.float32(v)) == np.float32(v)

    assert representable(1.0)
    assert representable(0.5)
    assert representable(65504.0)
    assert not representable(1e-10)  # underflows to 0
    assert not representable(0.1)    # not a dyadic rational
    assert not representable(1e6)    # overflows to inf
    assert np.isnan(round_fp16(np.float32("nan")))


def test_quantization_error_zero_for_representable():
    x = np.array([0.0, 1.0, -2.5, 1024.0], dtype=np.float32)
    assert np.array_equal(round_fp16(x), x)


def test_quantization_error_bounded_by_half_ulp():
    rng = np.random.default_rng(1)
    x = rng.uniform(1.0, 2.0, size=1000).astype(np.float32)
    # In [1, 2), fp16 ULP is 2^-10; round-to-nearest error <= half ULP.
    assert np.all(np.abs(x - round_fp16(x)) <= 2 ** -11 + 1e-12)


@given(st.floats(min_value=-60000, max_value=60000,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_property_round_fp16_idempotent_scalar(x):
    once = round_fp16(np.float32(x))
    assert np.array_equal(round_fp16(once), once)


@given(st.floats(min_value=-60000, max_value=60000,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_property_rounding_error_within_relative_bound(x):
    # fp16 has 11 significand bits -> relative error <= 2^-11 for
    # values in the normal range.
    if abs(x) < FP16_MIN_NORMAL:
        return
    r = float(round_fp16(np.float32(x)))
    assert abs(r - np.float32(x)) <= abs(np.float32(x)) * 2 ** -11 * 1.0001


@given(st.floats(min_value=-60000, max_value=60000, allow_nan=False),
       st.floats(min_value=-60000, max_value=60000, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_property_rounding_is_monotone(a, b):
    # Round-to-nearest preserves <= ordering.
    lo, hi = min(a, b), max(a, b)
    assert float(round_fp16(np.float32(lo))) <= float(
        round_fp16(np.float32(hi)))


# -- bit identity with NumPy's binary16 cast ---------------------------------

def _cast_round_trip(x):
    """The oracle: NumPy's own float32 -> float16 -> float32 casts."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(x, dtype=np.float32).astype(
            np.float16).astype(np.float32)


def _assert_same_bits(got, want):
    assert got.dtype == np.float32 and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.uint32)[~nan],
                          want.view(np.uint32)[~nan])


@pytest.mark.parametrize("high", [0x000, 0x155, 0x1FF])
@pytest.mark.parametrize("sign", [0, 1])
def test_round_fp16_matches_cast_on_every_rounding_pattern(sign, high):
    # Within a binade, binary16 rounding reads the kept LSB and the 13
    # bits below it: all 2^14 low-fraction patterns, under every
    # exponent, with the 9 higher fraction bits clear, mixed and set
    # (set is where rounding carries into the next binade).
    low = np.arange(1 << 14, dtype=np.uint32)
    exponent = np.arange(256, dtype=np.uint32)[:, None] << 23
    bits = (np.uint32(sign << 31) | exponent | np.uint32(high << 14)
            | low)
    x = bits.view(np.float32)
    _assert_same_bits(round_fp16(x), _cast_round_trip(x))


def test_round_fp16_matches_cast_on_special_values():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                  65504.0, -65504.0, 65519.996, -65519.996,
                  65520.0, -65520.0, 65536.0, 1e30, -1e30,
                  np.finfo(np.float32).max, np.finfo(np.float32).tiny,
                  1e-45, -1e-45], dtype=np.float32)
    got = round_fp16(x)
    _assert_same_bits(got, _cast_round_trip(x))
    assert np.signbit(got[1]) and not np.signbit(got[0])
    assert list(got[6:12]) == [65504.0, -65504.0, 65504.0, -65504.0,
                               np.inf, -np.inf]


def test_round_fp16_matches_cast_on_subnormal_ties():
    # k + 1/2 binary16 subnormal steps, ties to even: 0, 2, 2, 4, ...
    # and the tie at 2^-25 between zero and the smallest subnormal.
    k = np.arange(0, 1 << 10, dtype=np.float32)
    ties = (k + np.float32(0.5)) * np.float32(FP16_MIN_SUBNORMAL)
    x = np.concatenate([ties, -ties])
    got = round_fp16(x)
    _assert_same_bits(got, _cast_round_trip(x))
    steps = got[:4] / np.float32(FP16_MIN_SUBNORMAL)
    assert list(steps) == [0.0, 2.0, 2.0, 4.0]
    assert np.signbit(got[1 << 10])  # -2^-25 rounds to -0


def test_round_fp16_keeps_0d_and_non_contiguous_inputs():
    for scalar in (0.0, -0.0, 1.1, 65520.0, np.float32(3.3)):
        got = round_fp16(np.float32(scalar))
        assert isinstance(got, np.ndarray) and got.shape == ()
        _assert_same_bits(got, _cast_round_trip(scalar))
    base = np.random.default_rng(2).normal(
        scale=1e3, size=(6, 8, 10)).astype(np.float32)
    for view in (base[:, ::2, 1::3], base.transpose(2, 0, 1),
                 base[::-1]):
        before = base.copy()
        _assert_same_bits(round_fp16(view), _cast_round_trip(view))
        assert np.array_equal(base, before)  # input left untouched
    wide = base.astype(np.float64) * 1.0001
    _assert_same_bits(round_fp16(wide), _cast_round_trip(wide))
