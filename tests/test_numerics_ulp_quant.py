"""Tests for ULP analysis and precision policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics import (
    Precision,
    PrecisionPolicy,
    relative_error,
    ulp_distance,
)


def test_ulp_zero_for_identical():
    x = np.array([1.0, -2.0, 0.5])
    assert np.all(ulp_distance(x, x) == 0)


def test_ulp_one_for_adjacent_fp16():
    a = np.float16(1.0)
    b = np.nextafter(a, np.float16(2.0))
    assert ulp_distance(np.array([a]), np.array([b]))[0] == 1


def test_ulp_across_zero():
    # +smallest_subnormal and -smallest_subnormal are 2 ULP apart.
    tiny = np.nextafter(np.float16(0), np.float16(1))
    d = ulp_distance(np.array([tiny]), np.array([-tiny]))
    assert d[0] == 2


def test_ulp_nan_flagged():
    d = ulp_distance(np.array([np.nan]), np.array([1.0]))
    assert d[0] == np.iinfo(np.int64).max


def test_ulp_symmetry():
    a = np.array([1.5, 3.25])
    b = np.array([1.75, 3.0])
    assert np.array_equal(ulp_distance(a, b), ulp_distance(b, a))


def test_relative_error():
    err = relative_error(np.array([1.1]), np.array([1.0]))
    assert err[0] == pytest.approx(0.1)


def test_relative_error_near_zero_uses_eps():
    err = relative_error(np.array([1e-13]), np.array([0.0]))
    assert np.isfinite(err[0])


def test_precision_enum_dtypes():
    assert Precision.FP32.dtype == np.float32
    assert Precision.FP16.dtype == np.float16
    assert Precision.FP32.bytes_per_element == 4
    assert Precision.FP16.bytes_per_element == 2


def test_fp32_policy_is_identity():
    p = PrecisionPolicy.fp32()
    x = np.array([0.1, 0.2], dtype=np.float32)
    assert np.array_equal(p.quantize_weight_array(x), x)
    assert p.quantize_activation_array(x) is x


def test_fp16_policy_rounds():
    p = PrecisionPolicy.fp16()
    x = np.array([0.1], dtype=np.float32)
    w = p.quantize_weight_array(x)
    assert w.dtype == np.float32
    assert w[0] != x[0]  # 0.1 is not fp16-representable
    assert w[0] == np.float16(0.1)


def test_policy_names():
    assert PrecisionPolicy.fp32().name == "fp32"
    assert PrecisionPolicy.fp16().name == "fp16"


def test_policy_frozen():
    p = PrecisionPolicy.fp16()
    with pytest.raises(AttributeError):
        p.precision = Precision.FP32


@given(st.floats(min_value=-60000, max_value=60000, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_property_fp16_roundtrip_is_within_one_ulp(x):
    from repro.numerics import round_fp16
    r = round_fp16(np.float32(x))
    # Round-to-nearest lands on the nearest lattice point: <= 1 ULP away
    # (0 ULP when measured after both are in the fp16 lattice).
    assert ulp_distance(np.array([r]), np.array([x]))[0] <= 1
