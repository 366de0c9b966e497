"""Inference records and run-level aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import FrameworkError
from repro.numerics.stats import RunningStats

if TYPE_CHECKING:
    from repro.ncsw.faults import FailureEvent


@dataclass(frozen=True)
class InferenceRecord:
    """Outcome of one inference."""

    index: int
    image_id: int
    label: Optional[int]
    predicted: Optional[int]
    confidence: Optional[float]
    device: str
    t_submit: float
    t_complete: float

    @property
    def latency(self) -> float:
        """Submit-to-complete time of this inference."""
        return self.t_complete - self.t_submit

    @property
    def correct(self) -> Optional[bool]:
        """Top-1 correctness, or None when unlabelled/non-functional."""
        if self.label is None or self.predicted is None:
            return None
        return self.label == self.predicted

@dataclass
class RunResult:
    """Aggregated outcome of one source-through-target run."""

    source: str
    target: str
    batch_size: int
    records: list[InferenceRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    decode_seconds_excluded: float = 0.0
    #: True when the target received no work at all (e.g. an empty
    #: round-robin split in ``run_group`` with more targets than
    #: items); such a result holds no measurement.
    empty: bool = False
    #: Device failures observed during the run (empty on healthy
    #: runs).
    failures: list["FailureEvent"] = field(default_factory=list)
    #: Work items drained off failed devices and re-dispatched.
    reassigned: int = 0
    #: Work items given up on (retry budget exhausted / no survivors).
    abandoned: int = 0

    @property
    def images(self) -> int:
        """Number of inference records in the run."""
        return len(self.records)

    @property
    def degraded(self) -> bool:
        """True when any device failed or any work was abandoned."""
        return bool(self.failures) or self.abandoned > 0

    def dead_devices(self) -> tuple[str, ...]:
        """Unique failed-device ids, in failure order."""
        seen: dict[str, None] = {}
        for e in self.failures:
            seen.setdefault(e.device, None)
        return tuple(seen)

    def throughput(self) -> float:
        """Images per second over the run (paper Fig. 6a metric)."""
        if self.empty:
            raise FrameworkError(
                f"target {self.target!r} received no work items "
                "(empty split)")
        if self.wall_seconds <= 0:
            raise FrameworkError("run has no elapsed time")
        return self.images / self.wall_seconds

    def seconds_per_image(self) -> float:
        """Mean inference time per image."""
        if self.empty:
            raise FrameworkError(
                f"target {self.target!r} received no work items "
                "(empty split)")
        if self.images == 0:
            raise FrameworkError("run has no records")
        return self.wall_seconds / self.images

    def top1_error(self) -> float:
        """Fraction of labelled images whose top-1 prediction missed."""
        scored = [r for r in self.records if r.correct is not None]
        if not scored:
            raise FrameworkError(
                "no labelled predictions (non-functional run?)")
        wrong = sum(1 for r in scored if not r.correct)
        return wrong / len(scored)

    def latency_stats(self) -> RunningStats:
        """Distribution of per-image submit-to-complete latency."""
        stats = RunningStats()
        stats.extend(r.latency for r in self.records)
        return stats

    def per_device_counts(self) -> dict[str, int]:
        """Images handled by each device (round-robin balance check)."""
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.device] = counts.get(r.device, 0) + 1
        return counts

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.empty:
            return (f"{self.source}->{self.target} | empty "
                    "(no work items assigned)")
        parts = [f"{self.source}->{self.target}",
                 f"{self.images} images",
                 f"batch {self.batch_size}",
                 f"{self.wall_seconds * 1000:.1f} ms",
                 f"{self.throughput():.1f} img/s"]
        try:
            parts.append(f"top-1 err {self.top1_error():.4f}")
        except FrameworkError:
            pass
        if self.degraded:
            parts.append(
                f"DEGRADED: {len(self.failures)} failure(s) on "
                f"{{{', '.join(self.dead_devices())}}}, "
                f"{self.reassigned} reassigned, "
                f"{self.abandoned} abandoned")
        return " | ".join(parts)
