"""Measurement probes for simulation models.

:class:`Monitor` accumulates ``(time, value)`` samples and computes
time-weighted statistics — used for link utilisation, queue depths and
power draw.  :class:`RollingP99` keeps the nearest-rank p99 of the
latest latencies.  :class:`TraceRecorder` collects structured trace
events (who did what, when) that the test-suite asserts against.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.sim.core import Environment


class Monitor:
    """Piecewise-constant signal sampled against the simulated clock."""

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, value: float) -> None:
        """Record *value* effective from the current simulated time."""
        self.times.append(self.env.now)
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last(self) -> float:
        """Most recently recorded value (0.0 if nothing recorded)."""
        return self.values[-1] if self.values else 0.0

    def time_average(self, until: float | None = None) -> float:
        """Time-weighted mean of the signal from first sample to *until*.

        An *until* strictly before the first sample means no part of
        the signal is in the window, so the average is 0.0 (matching
        :meth:`integral`); ``until == first sample time`` keeps the
        zero-duration fallback of returning the sample value.
        """
        if not self.values:
            return 0.0
        end = self.env.now if until is None else until
        if end < self.times[0]:
            return 0.0
        total = 0.0
        duration = 0.0
        for i, (t, v) in enumerate(zip(self.times, self.values)):
            t_next = self.times[i + 1] if i + 1 < len(self.times) else end
            t_next = min(t_next, end)
            if t_next <= t:
                continue
            total += v * (t_next - t)
            duration += t_next - t
        return total / duration if duration > 0 else self.values[0]

    def integral(self, until: float | None = None) -> float:
        """Integral of the signal over time (e.g. power -> energy)."""
        if not self.values:
            return 0.0
        end = self.env.now if until is None else until
        total = 0.0
        for i, (t, v) in enumerate(zip(self.times, self.values)):
            t_next = self.times[i + 1] if i + 1 < len(self.times) else end
            t_next = min(t_next, end)
            if t_next > t:
                total += v * (t_next - t)
        return total

    def maximum(self) -> float:
        """Largest recorded value (0.0 if nothing recorded)."""
        return max(self.values) if self.values else 0.0


class RollingP99:
    """Nearest-rank p99 over the last *size* samples.

    The window is kept in arrival order (to evict the oldest) and in
    sorted order (``bisect``), so reading the p99 is one index:
    element ``ceil(0.99 n) - 1`` of the sorted window, deterministic,
    no interpolation.
    """

    def __init__(self, size: int) -> None:
        self._window: deque = deque()
        self._sorted: list[float] = []
        self.size = size

    def append(self, value: float) -> None:
        """Add *value*, evicting the oldest sample of a full window."""
        if len(self._window) == self.size:
            old = self._window.popleft()
            del self._sorted[bisect.bisect_left(self._sorted, old)]
        self._window.append(value)
        bisect.insort(self._sorted, value)

    def clear(self) -> None:
        """Empty the window."""
        self._window.clear()
        self._sorted.clear()

    def p99(self) -> Optional[float]:
        """The window's p99, or None while it is empty."""
        ordered = self._sorted
        if not ordered:
            return None
        return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record."""

    time: float
    actor: str
    action: str
    detail: dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Append-only log of :class:`TraceEvent` records.

    Recording is toggled through :meth:`enable` / :meth:`disable` —
    the same API shape as :class:`repro.obs.tracer.Tracer`.  Assigning
    the :attr:`enabled` attribute directly still works but is
    deprecated.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.events: list[TraceEvent] = []
        self._enabled = True

    @property
    def enabled(self) -> bool:
        """Whether :meth:`emit` records anything."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        import warnings

        warnings.warn(
            "setting TraceRecorder.enabled directly is deprecated; "
            "use enable()/disable()", DeprecationWarning, stacklevel=2)
        self._enabled = bool(value)

    def enable(self) -> None:
        """Resume recording trace events."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording; subsequent :meth:`emit` calls are no-ops."""
        self._enabled = False

    def emit(self, actor: str, action: str, **detail: Any) -> None:
        """Append a trace record stamped with the current simulated time."""
        if self._enabled:
            self.events.append(
                TraceEvent(self.env.now, actor, action, detail))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)
