"""Tests for Welford statistics and confidence intervals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics import RunningStats


def test_empty_stats_raise():
    rs = RunningStats()
    with pytest.raises(ValueError):
        _ = rs.mean
    with pytest.raises(ValueError):
        _ = rs.min


def test_single_sample():
    rs = RunningStats()
    rs.push(5.0)
    assert rs.mean == 5.0
    assert rs.std == 0.0
    assert rs.min == rs.max == 5.0
    assert rs.n == 1


def test_matches_numpy():
    rng = np.random.default_rng(7)
    xs = rng.normal(10, 3, size=1000)
    rs = RunningStats()
    rs.extend(xs)
    assert rs.mean == pytest.approx(np.mean(xs))
    assert rs.std == pytest.approx(np.std(xs, ddof=1))
    assert rs.min == xs.min()
    assert rs.max == xs.max()


def test_numerical_stability_large_offset():
    # Classic catastrophic-cancellation scenario for naive variance.
    xs = 1e9 + np.array([1.0, 2.0, 3.0, 4.0])
    rs = RunningStats()
    rs.extend(xs)
    assert rs.variance == pytest.approx(np.var(xs, ddof=1), rel=1e-9)


def test_merge_equals_sequential():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=500)
    a, b = RunningStats(), RunningStats()
    a.extend(xs[:200])
    b.extend(xs[200:])
    merged = a.merge(b)
    full = RunningStats()
    full.extend(xs)
    assert merged.n == full.n
    assert merged.mean == pytest.approx(full.mean)
    assert merged.std == pytest.approx(full.std)
    assert merged.min == full.min
    assert merged.max == full.max


def test_merge_with_empty():
    a = RunningStats()
    b = RunningStats()
    b.extend([1, 2, 3])
    m = a.merge(b)
    assert m.n == 3
    assert m.mean == 2.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=100))
@settings(max_examples=100, deadline=None)
def test_property_welford_matches_numpy(xs):
    rs = RunningStats()
    rs.extend(xs)
    assert rs.mean == pytest.approx(float(np.mean(xs)), rel=1e-9, abs=1e-6)
    assert rs.variance == pytest.approx(
        float(np.var(xs, ddof=1)), rel=1e-6, abs=1e-6)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False), min_size=1, max_size=50),
       st.lists(st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_property_merge_associates(xs, ys):
    a, b = RunningStats(), RunningStats()
    a.extend(xs)
    b.extend(ys)
    m = a.merge(b)
    full = RunningStats()
    full.extend(list(xs) + list(ys))
    assert m.mean == pytest.approx(full.mean, rel=1e-9, abs=1e-9)
    assert math.isclose(m.variance, full.variance,
                        rel_tol=1e-6, abs_tol=1e-9)
