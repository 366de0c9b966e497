"""Tests for unit helpers."""

import pytest

from repro import units


def test_frequency_constants():
    assert units.MHZ == 1e6
    assert 600 * units.MHZ == 6e8


def test_size_constants():
    assert units.MiB == 1024 ** 2
    assert 2 * units.MiB == 2097152
    assert units.MB == 1e6


def test_cycles_to_seconds():
    # 600 cycles at 600 MHz = 1 microsecond
    assert units.cycles_to_seconds(600, 600 * units.MHZ) == pytest.approx(
        1e-6)


def test_cycles_invalid_frequency():
    with pytest.raises(ValueError):
        units.cycles_to_seconds(1, 0)
    with pytest.raises(ValueError):
        units.cycles_to_seconds(1, -5)
