"""Thermal model of the NCS stick.

The paper's §V flags that "actual power measurements would be required
in future work to understand the practical differences"; one practical
difference a fanless USB stick exhibits is *thermal throttling* under
sustained load (the NCS's firmware down-clocks the media clock when
the SoC runs hot).  This module provides a first-order RC thermal
model with hysteretic throttling that the NCS device model can
optionally carry — disabled by default, since the paper's runs are
short enough not to hit it.

Physics: a single thermal mass with resistance R (°C/W) to ambient
and time constant tau; temperature relaxes exponentially toward
``ambient + P * R``:

    T(t + dt) = T_inf + (T(t) - T_inf) * exp(-dt / tau)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass(frozen=True)
class ThermalConfig:
    """RC thermal parameters of a fanless NCS stick."""

    ambient_c: float = 25.0
    #: Junction-to-ambient resistance; a bare USB stick dissipates
    #: poorly, so 2.5 W sustained approaches ~75 C.
    resistance_c_per_w: float = 20.0
    time_constant_s: float = 60.0
    throttle_temp_c: float = 70.0
    recover_temp_c: float = 62.0
    #: Media-clock scale while throttled.
    throttle_scale: float = 0.6
    #: Hard over-temperature cut-off: past this the firmware kills the
    #: stick outright (latched — a power cycle is needed).  The default
    #: sits above the 2.5 W steady state (75 C), so it is unreachable
    #: without fault injection or a pathological config.
    shutdown_temp_c: float = 90.0

    def __post_init__(self) -> None:
        if self.resistance_c_per_w <= 0 or self.time_constant_s <= 0:
            raise SimulationError("thermal R and tau must be positive")
        if not 0.0 < self.throttle_scale <= 1.0:
            raise SimulationError(
                "throttle_scale must be in (0, 1]")
        if self.recover_temp_c >= self.throttle_temp_c:
            raise SimulationError(
                "recover temperature must sit below the throttle "
                "threshold (hysteresis)")
        if self.shutdown_temp_c <= self.throttle_temp_c:
            raise SimulationError(
                "shutdown temperature must sit above the throttle "
                "threshold")


class ThermalModel:
    """Tracks stick temperature against the simulated clock."""

    def __init__(self, config: ThermalConfig | None = None) -> None:
        self.config = config or ThermalConfig()
        self._temp = self.config.ambient_c
        self._last_update = 0.0
        self._throttled = False
        self._shut_down = False
        self.throttle_events = 0

    @property
    def shut_down(self) -> bool:
        """Whether the over-temperature cut-off has tripped (latched)."""
        return self._shut_down

    def force_temperature(self, temp_c: float,
                          at: float | None = None) -> None:
        """Override the junction temperature (fault injection hook).

        Sets the state directly — e.g. a blocked vent or runaway load
        — and re-evaluates the throttle/shutdown thresholds at once.
        Passing ``at`` also advances the model clock so the forced
        temperature does not immediately decay through a stale ``dt``.
        """
        self._temp = float(temp_c)
        if at is not None:
            if at < self._last_update:
                raise SimulationError(
                    f"time went backwards: {at} < {self._last_update}")
            self._last_update = at
        self._evaluate_thresholds()

    def update(self, now: float, power_w: float) -> None:
        """Advance the thermal state to time *now* at *power_w* draw.

        Call with the power that was drawn since the previous update.
        """
        if now < self._last_update:
            raise SimulationError(
                f"time went backwards: {now} < {self._last_update}")
        if power_w < 0:
            raise SimulationError("power must be >= 0")
        cfg = self.config
        dt = now - self._last_update
        self._last_update = now
        if dt > 0:
            t_inf = cfg.ambient_c + power_w * cfg.resistance_c_per_w
            decay = math.exp(-dt / cfg.time_constant_s)
            self._temp = t_inf + (self._temp - t_inf) * decay
        self._evaluate_thresholds()

    def _evaluate_thresholds(self) -> None:
        """Latch shutdown and advance the hysteretic throttle state."""
        cfg = self.config
        if self._temp >= cfg.shutdown_temp_c:
            self._shut_down = True
        if self._throttled:
            if self._temp <= cfg.recover_temp_c:
                self._throttled = False
        elif self._temp >= cfg.throttle_temp_c:
            self._throttled = True
            self.throttle_events += 1

    def frequency_scale(self) -> float:
        """Current media-clock multiplier (1.0 when cool)."""
        return self.config.throttle_scale if self._throttled else 1.0
