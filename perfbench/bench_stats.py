"""Metric arithmetic for the benchmark.

Everything here is pure: medians and quartile spreads of repeated
timings, the throughput of a set of repetitions when some of them
failed their correctness checks, self time of nested spans, and the
host time no layer accounts for.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class Rep:
    """One timed repetition of a workload's measured unit of work."""

    items: int
    seconds: float
    #: Correctness-check failures; empty when every check held.
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Span:
    """A timed call into one layer; ``parent`` indexes the enclosing
    span in the same recording, or is None at top level."""

    name: str
    start: float
    end: float
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)``, the
    definition the acceptance check for run-to-run noise uses.
    """
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def tally(reps: Sequence[Rep]) -> tuple[int, int]:
    """``(attempted, failed)`` operations over a run.

    A failed check anywhere fails the whole run: every operation it
    attempted counts as failed, because a wrong answer in one
    repetition means the timings of the others are not trustworthy
    either.
    """
    attempted = sum(r.items for r in reps)
    failed = attempted if any(not r.ok for r in reps) else 0
    return attempted, failed


def items_per_s(reps: Sequence[Rep]) -> float:
    """Median over repetitions of items completed per host second.

    A repetition whose checks failed completed no useful work, so it
    contributes a rate of zero rather than being dropped: failures
    pull the median down instead of hiding.
    """
    if not reps:
        raise ValueError("no repetitions measured")
    return median([(r.items if r.ok else 0) / r.seconds for r in reps])


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part
    of it covered by its direct children.

    Spans come from a single-threaded call stack, so children nest
    inside their parent and do not overlap each other; their
    durations can simply be subtracted.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    out: dict[str, float] = {}
    for span, covered in zip(spans, child_time):
        out[span.name] = out.get(span.name, 0.0) + span.duration - covered
    return out


def unattributed(wall_s: float, layer_self_s: Iterable[float]) -> float:
    """Traced wall time that no layer's self time accounts for."""
    return wall_s - sum(layer_self_s)
