"""Tests for the power package: TDP registry and Eq. (1) metrics."""

import pytest

from repro.errors import PowerError
from repro.power import (
    DEFAULT_TDP,
    TDP,
    TDPRegistry,
    tdp_reduction,
    throughput_per_watt,
)


def test_default_registry_paper_values():
    assert DEFAULT_TDP.watts("cpu") == 80.0
    assert DEFAULT_TDP.watts("gpu") == 80.0
    assert DEFAULT_TDP.watts("vpu_chip") == pytest.approx(0.9)
    assert DEFAULT_TDP.watts("ncs") == pytest.approx(2.5)


def test_registry_count_scaling():
    assert DEFAULT_TDP.watts("ncs", count=8) == pytest.approx(20.0)
    with pytest.raises(PowerError):
        DEFAULT_TDP.watts("ncs", count=0)


def test_registry_lookup_and_contains():
    assert "cpu" in DEFAULT_TDP
    assert "tpu" not in DEFAULT_TDP
    entry = DEFAULT_TDP.get("vpu_chip")
    assert "Myriad" in entry.source
    with pytest.raises(PowerError):
        DEFAULT_TDP.get("tpu")
    assert DEFAULT_TDP.names() == ["cpu", "gpu", "ncs", "vpu_chip"]


def test_registry_duplicate_rejected():
    with pytest.raises(PowerError):
        TDPRegistry([TDP("a", 1, "x"), TDP("a", 2, "y")])


def test_tdp_validation():
    with pytest.raises(PowerError):
        TDP("bad", 0, "nowhere")


def test_throughput_per_watt_eq1():
    # Paper Fig. 8a: one VPU does 9.93 img/s on a 2.5 W stick.
    assert throughput_per_watt(9.93, 2.5) == pytest.approx(3.97,
                                                           abs=0.01)
    # CPU: 44.0 img/s at 80 W -> 0.55.
    assert throughput_per_watt(44.0, 80.0) == pytest.approx(0.55)
    with pytest.raises(PowerError):
        throughput_per_watt(1.0, 0.0)
    with pytest.raises(PowerError):
        throughput_per_watt(-1.0, 1.0)


def test_tdp_reduction_headline():
    # 80 W CPU vs 8 chips x 0.9 W: the paper's "up to 8x" headline
    # (11x at pure chip TDP, 4x counting whole sticks).
    assert tdp_reduction(80.0, 8 * 0.9) == pytest.approx(11.1, abs=0.1)
    assert tdp_reduction(80.0, 8 * 2.5) == pytest.approx(4.0)
    with pytest.raises(PowerError):
        tdp_reduction(0, 1)
