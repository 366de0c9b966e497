"""Power-island model of the NCS's Myriad 2.

The NCS employs 20 power islands, one per SHAVE plus islands for the
RISC processors, CMX, SIPP, DDR interface and peripherals (paper
§II-B) — the mechanism that keeps the SoC under its ~0.9 W chip TDP.
The model tracks island on/off state against the simulated clock and
integrates per-island power into energy.
"""

from __future__ import annotations

from repro.errors import PowerError
from repro.sim.core import Environment
from repro.sim.monitor import Monitor

#: Island inventory: name -> active power draw in watts. The split is
#: chosen so that all-on totals ~0.9 W (the Myriad 2 chip TDP) with the
#: SHAVE islands dominating, per the Hot Chips / IEEE Micro breakdowns.
DEFAULT_ISLANDS: dict[str, float] = {
    **{f"shave{i}": 0.045 for i in range(12)},   # 0.54 W all twelve
    "risc0": 0.040,
    "risc1": 0.040,
    "cmx": 0.080,
    "sipp": 0.060,
    "ddr_if": 0.070,
    "usb": 0.040,
    "peripherals": 0.020,
    "always_on": 0.010,
}

#: Leakage drawn by a gated island (fraction of active power).
GATED_FRACTION = 0.05


class PowerIslands:
    """Tracks island gating state and integrates energy over sim time."""

    def __init__(self, env: Environment,
                 islands: dict[str, float] | None = None) -> None:
        self.env = env
        self.islands = dict(islands or DEFAULT_ISLANDS)
        if len(self.islands) == 0:
            raise PowerError("need at least one island")
        if any(p < 0 for p in self.islands.values()):
            raise PowerError("island power must be >= 0")
        self._on: dict[str, bool] = {n: False for n in self.islands}
        self._on["always_on"] = "always_on" in self.islands
        self.monitor = Monitor(env, name="chip_power")
        self.monitor.record(self.current_power())

    @property
    def count(self) -> int:
        """Number of power islands (the NCS uses 20)."""
        return len(self.islands)

    def power_on(self, *names: str) -> None:
        """Ungate the named islands as one transition.

        One monitor sample is recorded per call (if any island changed
        state), holding the power with every named island on.  Gating
        islands one call at a time adds zero-duration samples at the
        same instant, which the energy, average and peak statistics
        skip or dominate, so both forms give bit-identical results.
        """
        for name in names:
            self._check(name)
        self._gate(names, True)

    def power_off(self, *names: str) -> None:
        """Gate the named islands as one transition (always_on cannot
        be gated); records one sample, like :meth:`power_on`."""
        for name in names:
            self._check(name)
            if name == "always_on":
                raise PowerError("the always-on island cannot be gated")
        self._gate(names, False)

    def _gate(self, names: tuple[str, ...], on: bool) -> None:
        flipped = [name for name in names if self._on[name] is not on]
        for name in flipped:
            self._on[name] = on
        if flipped:
            self.monitor.record(self.current_power())

    def current_power(self) -> float:
        """Instantaneous chip power in watts."""
        total = 0.0
        for name, p in self.islands.items():
            total += p if self._on[name] else p * GATED_FRACTION
        return total

    def energy_joules(self) -> float:
        """Energy consumed from t=0 to the current simulated time."""
        return self.monitor.integral()

    def _check(self, name: str) -> None:
        if name not in self.islands:
            raise PowerError(
                f"unknown island {name!r}; islands: "
                f"{sorted(self.islands)}")
