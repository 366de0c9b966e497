"""Workflow accounting: per-stage ServeResults rolled into one SLO.

A workflow run is judged twice over.  Each model stage keeps its own
:class:`~repro.serve.slo.ServeResult` (queue waits, batch sizes, a
per-stage SLO), and the :class:`WorkflowResult` rolls them up into a
workflow-level view: end-to-end latency percentiles over whole
cascades, a workflow SLO, and goodput in *workflows* per second.

Two invariants are enforced in the constructor, mirroring
:class:`~repro.ncsw.pipeline.PipelineResult` and
:class:`~repro.cluster.result.ClusterResult`:

* **exactly-once at the workflow level** — every offered workflow
  request resolves into exactly one terminal state, crosschecked
  against the per-request status list;
* **exactly-once through every fan-out** — each region's spawned
  sub-requests are fully accounted: ``spawned = joined + abandoned``.

A completed request's ``stage_intervals`` tile its journey without
gaps — interval end times telescope exactly to the workflow
end-to-end latency — which is what makes the per-stage waterfall of a
cascade trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import FlowError
from repro.serve.slo import ServeResult, SloStats
from repro.serve.workload import (
    ABANDONED,
    COMPLETED,
    PENDING,
    REJECTED,
    SHED,
    TIMED_OUT,
)


@dataclass
class WorkflowRequest:
    """One workflow request's journey through the whole graph."""

    request_id: int
    arrival_time: float
    #: Absolute deadline on the sim clock shared by every stage this
    #: request touches, or None for no limit.
    deadline_at: Optional[float] = None
    status: str = PENDING
    completed_at: Optional[float] = None
    #: The final item payload delivered at the sink (completed only).
    output: Any = field(repr=False, default=None)
    #: ``(stage, t0, t1)`` triples tiling arrival → completion; a
    #: fan-out region appears as one ``"fanout+join"`` interval.
    stage_intervals: list[tuple[str, float, float]] = field(
        default_factory=list)
    #: Causal trace context riding across every stage boundary.
    trace: Optional[object] = field(repr=False, default=None)

    @property
    def e2e_latency(self) -> Optional[float]:
        """Arrival-to-completion latency, or None if not completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival_time


@dataclass
class StageResult:
    """One model stage's serving outcome inside a workflow run."""

    name: str
    result: ServeResult


@dataclass
class FanOutAccount:
    """Exactly-once ledger of one fan-out region."""

    step: str
    join: str
    spawned: int
    joined: int
    abandoned: int


@dataclass
class WorkflowResult(SloStats):
    """Outcome of one workflow run (the workflow-level roll-up)."""

    error = FlowError

    workflow: str
    offered: int
    completed: int
    shed: int
    rejected: int
    timed_out: int
    abandoned: int
    wall_seconds: float
    prepare_seconds: float = 0.0
    slo_seconds: Optional[float] = None
    requests: list[WorkflowRequest] = field(default_factory=list)
    stages: list[StageResult] = field(default_factory=list)
    fan_out: list[FanOutAccount] = field(default_factory=list)
    #: Leading completed workflows excluded from latency statistics.
    warmup: int = 0

    def __post_init__(self) -> None:
        accounted = (self.completed + self.shed + self.rejected
                     + self.timed_out + self.abandoned)
        if accounted != self.offered:
            raise FlowError(
                f"workflow accounting broken: {self.completed} "
                f"completed + {self.shed} shed + {self.rejected} "
                f"rejected + {self.timed_out} timed out + "
                f"{self.abandoned} abandoned != {self.offered} "
                "offered")
        if self.requests:
            by_status = {
                COMPLETED: self.completed, SHED: self.shed,
                REJECTED: self.rejected, TIMED_OUT: self.timed_out,
                ABANDONED: self.abandoned,
            }
            for status, expected in by_status.items():
                actual = sum(1 for r in self.requests
                             if r.status == status)
                if actual != expected:
                    raise FlowError(
                        f"{actual} workflow requests in state "
                        f"{status!r} but the tally says {expected}")
        for acct in self.fan_out:
            if acct.spawned != acct.joined + acct.abandoned:
                raise FlowError(
                    f"fan-out accounting broken at {acct.step!r}: "
                    f"{acct.spawned} spawned != {acct.joined} joined "
                    f"+ {acct.abandoned} abandoned")
        if self.warmup < 0:
            raise FlowError("warmup must be >= 0")

    # -- request views --------------------------------------------------
    def completed_requests(self) -> list[WorkflowRequest]:
        """Completed workflow requests in arrival order."""
        return [r for r in self.requests if r.status == COMPLETED]

    def stage(self, name: str) -> StageResult:
        """The stage roll-up for one model step."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise FlowError(
            f"no stage {name!r} in this workflow result; stages: "
            f"{[s.name for s in self.stages]}")

    @property
    def sub_requests_spawned(self) -> int:
        """Total sub-requests spawned across every fan-out region."""
        return sum(a.spawned for a in self.fan_out)

    def summary(self) -> str:
        """One-line human-readable summary of the run."""
        return self._with_latency(
            f"{self.workflow}: {self.completed}/{self.offered} workflows "
            f"in {self.wall_seconds:.2f} s{self._losses()}",
            noun="workflows", rate="wf/s")
