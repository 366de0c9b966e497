"""Span-based tracing stamped with simulated time.

A :class:`Span` is a named interval ``[start, end]`` on a *track* — a
device, a USB link, a host thread.  The :class:`Tracer` collects spans
with correct parent/child nesting per track, so a multi-stick run
renders as the paper's Fig. 4-style timeline when exported to
Perfetto (:mod:`repro.obs.perfetto`).

Timestamps come from the simulated clock of whatever
:class:`~repro.sim.core.Environment` the tracer is bound to.  Because
experiment drivers create a fresh environment per run, re-binding
shifts an epoch offset forward so successive runs concatenate on one
monotonic timeline instead of overlapping at ``t=0``.

The default tracer in the instrumented stack is *no* tracer
(``Environment.obs is None``), which costs one attribute check per
instrumentation point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.errors import ObservabilityError


@dataclass
class Span:
    """One named interval on a track, with optional parent."""

    name: str
    track: str
    start: float
    end: Optional[float] = None
    args: dict[str, Any] = field(default_factory=dict)
    parent: Optional["Span"] = None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        """True once :meth:`Tracer.end` has closed the span."""
        return self.end is not None


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Optional[Span]) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Optional[Span]:
        return self.span

    def __exit__(self, *exc: Any) -> None:
        if self.span is not None:
            self._tracer.end(self.span)


class Tracer:
    """Collects spans against the simulated clock.

    Bind the tracer to an environment with :meth:`bind`; until then
    (and after the environment is gone) timestamps freeze at the
    high-water mark of everything recorded so far.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.spans: list[Span] = []
        self._enabled = bool(enabled)
        self._env: Any = None
        self._offset = 0.0
        self._base = 0.0
        self._high_water = 0.0
        self._stacks: dict[str, list[Span]] = {}

    # -- clock ----------------------------------------------------------
    def bind(self, env: Any) -> None:
        """Stamp subsequent spans with *env*'s simulated clock.

        Re-binding advances the epoch offset to the high-water mark so
        a new run's ``t=0`` lands after everything already recorded.
        """
        self._env = env
        self._offset = self._high_water
        self._base = env.now

    def now(self) -> float:
        """Current trace timestamp (offset-corrected simulated time)."""
        if self._env is None:
            return self._high_water
        t = self._offset + (self._env.now - self._base)
        if t > self._high_water:
            self._high_water = t
        return t

    def timestamp(self, env_time: float) -> float:
        """Map a raw environment clock reading onto the trace
        timeline (same offset correction as :meth:`now`), e.g. to
        backdate a record to a submit time noted earlier."""
        if self._env is None:
            return self._high_water
        return self._offset + (env_time - self._base)

    # -- enable / disable ------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether the tracer records anything at all."""
        return self._enabled

    def enable(self) -> None:
        """Resume recording spans."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording; subsequent begin/end/instant are no-ops."""
        self._enabled = False

    # -- recording --------------------------------------------------------
    def begin(self, name: str, track: str = "host",
              **args: Any) -> Optional[Span]:
        """Open a span now; returns it (or None when disabled)."""
        if not self._enabled:
            return None
        stack = self._stacks.setdefault(track, [])
        span = Span(name=name, track=track, start=self.now(),
                    args=args, parent=stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Optional[Span]) -> None:
        """Close *span* at the current timestamp.

        Accepts ``None`` (the disabled-begin result) so call sites can
        pair begin/end unconditionally.  Out-of-order ends are
        tolerated: the span is removed from its track stack wherever
        it sits.
        """
        if span is None or not self._enabled:
            return
        if span.end is not None:
            raise ObservabilityError(
                f"span {span.name!r} already ended")
        span.end = self.now()
        stack = self._stacks.get(span.track, [])
        if span in stack:
            stack.remove(span)

    def span(self, name: str, track: str = "host",
             **args: Any) -> _SpanHandle:
        """Context manager form: ``with tracer.span("run"): ...``."""
        return _SpanHandle(self, self.begin(name, track, **args))

    def instant(self, name: str, track: str = "host",
                **args: Any) -> None:
        """Record a zero-duration marker event."""
        if not self._enabled:
            return
        t = self.now()
        self.spans.append(Span(name=name, track=track, start=t, end=t,
                               args=args))

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def tracks(self) -> list[str]:
        """Track names in first-appearance order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track, None)
        return list(seen)

    def by_name(self, name: str) -> list[Span]:
        """All spans called *name*."""
        return [s for s in self.spans if s.name == name]

    def by_track(self, track: str) -> list[Span]:
        """All spans on *track*, in begin order."""
        return [s for s in self.spans if s.track == track]

    def busy_seconds(self, track: str,
                     name: Optional[str] = None) -> float:
        """Total closed-span seconds on *track* (optionally one name).

        Only top-level spans count (children are contained in their
        parents), so the result is the track's occupied time, not a
        double-counted sum.
        """
        return sum(s.duration for s in self.spans
                   if s.track == track and s.finished
                   and s.parent is None
                   and (name is None or s.name == name))

    @property
    def extent(self) -> float:
        """High-water timestamp: end of the recorded timeline."""
        return self._high_water
