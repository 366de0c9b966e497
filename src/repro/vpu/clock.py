"""Clock domain helper."""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import cycles_to_seconds


@dataclass(frozen=True)
class Clock:
    """A fixed-frequency clock domain.

    The Myriad 2's SHAVEs, CMX and SIPP all run in the 600 MHz media
    clock domain (nominal); the DDR controller has its own domain.
    """

    freq_hz: float

    def __post_init__(self) -> None:
        if self.freq_hz <= 0:
            raise ValueError(
                f"frequency must be positive, got {self.freq_hz}")

    def to_seconds(self, cycles: float) -> float:
        """Wall-clock duration of *cycles* ticks."""
        return cycles_to_seconds(cycles, self.freq_hz)

    @property
    def period(self) -> float:
        """Seconds per tick."""
        return 1.0 / self.freq_hz
