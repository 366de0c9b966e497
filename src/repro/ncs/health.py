"""Per-device health tracking for fault-tolerant scheduling.

At fleet scale the paper's silent assumption — every stick stays
healthy for all 50 000 images — breaks down: sticks die, firmware
hangs, fanless enclosures cook.  The :class:`HealthMonitor` is the
host-side book-keeper of that reality: one status per device
(``healthy`` → ``dead``) with a timestamped transition
trail, driven by the fault-tolerant
:class:`~repro.ncsw.scheduler.MultiVPUScheduler` and consumed by the
degraded-mode accounting in run results and the utilisation report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NCAPIError
from repro.sim.core import Environment

#: Device states.
HEALTHY = "healthy"
DEAD = "dead"

_STATES = (HEALTHY, DEAD)


@dataclass(frozen=True)
class HealthTransition:
    """One recorded status change of one device."""

    device: str
    status: str
    time: float
    reason: str = ""


class HealthMonitor:
    """Tracks the health status of a set of devices on the sim clock."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._status: dict[str, str] = {}
        self.transitions: list[HealthTransition] = []

    def register(self, device_id: str,
                 status: str = HEALTHY) -> None:
        """Start tracking *device_id* (idempotent)."""
        if status not in _STATES:
            raise NCAPIError(f"unknown health status {status!r}")
        if device_id not in self._status:
            self._status[device_id] = status

    def status(self, device_id: str) -> str:
        """Current status of a registered device."""
        try:
            return self._status[device_id]
        except KeyError:
            raise NCAPIError(
                f"device {device_id!r} is not registered") from None

    def mark(self, device_id: str, status: str,
             reason: str = "") -> None:
        """Transition *device_id* to *status*, recording it.

        Dead is terminal: a dead device never becomes healthy again.
        Same-state marks are no-ops (no duplicate transitions in the
        trail).
        """
        if status not in _STATES:
            raise NCAPIError(f"unknown health status {status!r}")
        current = self.status(device_id)
        if current == status:
            return
        if current == DEAD:
            return
        self._status[device_id] = status
        self.transitions.append(HealthTransition(
            device=device_id, status=status, time=self.env.now,
            reason=reason))

    def mark_dead(self, device_id: str, reason: str = "") -> None:
        """Write a device off permanently."""
        self.mark(device_id, DEAD, reason)

    def is_alive(self, device_id: str) -> bool:
        """True while the device has not been written off."""
        return self.status(device_id) != DEAD

    def live(self) -> list[str]:
        """Devices not yet written off, in registration order."""
        return [d for d, s in self._status.items() if s != DEAD]

    def dead(self) -> list[str]:
        """Devices written off, in registration order."""
        return [d for d, s in self._status.items() if s == DEAD]
