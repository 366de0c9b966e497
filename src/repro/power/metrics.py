"""Throughput-per-Watt (the paper's Eq. 1) and TDP comparisons."""

from __future__ import annotations

from repro.errors import PowerError


def throughput_per_watt(images_per_second: float, watts: float) -> float:
    """Eq. (1): ThroughputWatt = (Images / Second) / TDP."""
    if watts <= 0:
        raise PowerError(f"watts must be positive, got {watts}")
    if images_per_second < 0:
        raise PowerError("throughput must be >= 0")
    return images_per_second / watts


def tdp_reduction(baseline_watts: float, new_watts: float) -> float:
    """How many times smaller the new configuration's TDP is.

    The paper's headline "reducing the TDP up to 8x" compares the 80 W
    CPU against the multi-VPU rig's chip-level TDP.
    """
    if baseline_watts <= 0 or new_watts <= 0:
        raise PowerError("TDP values must be positive")
    return baseline_watts / new_watts
