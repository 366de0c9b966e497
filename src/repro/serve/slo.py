"""SLO accounting: end-to-end latency percentiles vs a target.

A batch campaign is judged on throughput; a service is judged on a
*service-level objective* — "p99 end-to-end latency ≤ 250 ms", say —
and on *goodput*, the rate of requests that actually met it.
:class:`SloStats` computes those steady-state statistics once for
every serving result: one host's :class:`ServeResult`, a cluster's
:class:`~repro.cluster.result.ClusterResult` and a workflow's
:class:`~repro.flow.result.WorkflowResult`.

A :class:`ServeResult` holds every request's full journey (queue wait,
batch wait, service time) plus the terminal accounting, and enforces
the same constructor invariant as
:class:`~repro.ncsw.pipeline.PipelineResult`: every offered request
resolves exactly once — completed, shed, rejected, timed out, or
abandoned to a device failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Optional

import numpy as np

from repro.errors import FrameworkError, ReproError
from repro.serve.workload import (
    ABANDONED,
    COMPLETED,
    REJECTED,
    SHED,
    TIMED_OUT,
    Request,
)

if TYPE_CHECKING:
    from repro.ncsw.faults import FailureEvent


class SloStats:
    """Steady-state latency, rate and SLO statistics of a serving run.

    A subclass is a dataclass with ``offered``, ``completed``,
    ``wall_seconds``, ``slo_seconds`` and ``warmup``.  Its
    :meth:`completed_requests` fixes which requests completed and in
    what order the ``warmup`` leading ones (the cold-start transient)
    are trimmed.  Percentiles, SLO attainment and goodput all judge the
    same trimmed view, so they agree about which requests count.
    """

    #: Raised when the run cannot answer: no elapsed time, no SLO.
    error: ClassVar[type[ReproError]] = FrameworkError

    def completed_requests(self) -> list[Any]:
        """Completed requests, in the order warmup is trimmed from."""
        raise NotImplementedError

    def _steady_state(self) -> list[Any]:
        """Completed requests past the warmup transient."""
        return self.completed_requests()[self.warmup:]

    def e2e_latencies(self) -> list[float]:
        """Arrival-to-completion latency per steady-state request."""
        return [r.e2e_latency for r in self._steady_state()
                if r.e2e_latency is not None]

    # -- percentiles ----------------------------------------------------
    def latency_percentile(self, q: float) -> float:
        """End-to-end latency percentile (q in [0, 100])."""
        latencies = self.e2e_latencies()
        if not latencies:
            raise ValueError(
                "no completed requests past warmup: latency "
                "percentiles are undefined for this run")
        return float(np.percentile(latencies, q))

    @property
    def p50(self) -> float:
        """Median end-to-end latency (seconds)."""
        return self.latency_percentile(50)

    @property
    def p95(self) -> float:
        """95th-percentile end-to-end latency (seconds)."""
        return self.latency_percentile(95)

    @property
    def p99(self) -> float:
        """99th-percentile end-to-end latency (seconds)."""
        return self.latency_percentile(99)

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end latency (seconds)."""
        latencies = self.e2e_latencies()
        if not latencies:
            raise ValueError(
                "no completed requests past warmup: mean latency is "
                "undefined for this run")
        return float(np.mean(latencies))

    # -- rates ----------------------------------------------------------
    @property
    def throughput(self) -> float:
        """Completed requests per second of wall time."""
        if self.wall_seconds <= 0:
            raise self.error("run has no elapsed time")
        return self.completed / self.wall_seconds

    @property
    def slo_attainment(self) -> float:
        """Fraction of steady-state completed requests whose e2e
        latency met the SLO (1.0 when no SLO was configured or nothing
        completed)."""
        if self.slo_seconds is None:
            return 1.0
        latencies = self.e2e_latencies()
        if not latencies:
            return 1.0
        good = sum(1 for lat in latencies if lat <= self.slo_seconds)
        return good / len(latencies)

    @property
    def goodput(self) -> float:
        """Steady-state completed-within-SLO requests per second of
        wall time (the throughput when no SLO was configured)."""
        if self.wall_seconds <= 0:
            raise self.error("run has no elapsed time")
        if self.slo_seconds is None:
            return self.throughput
        good = sum(1 for lat in self.e2e_latencies()
                   if lat <= self.slo_seconds)
        return good / self.wall_seconds

    @property
    def loss_rate(self) -> float:
        """Fraction of offered requests that never completed."""
        if self.offered == 0:
            return 0.0
        return 1.0 - self.completed / self.offered

    @property
    def slo_met(self) -> bool:
        """True when p99 e2e latency is within the SLO and no request
        was lost (the load sweep's sustainability criterion)."""
        if self.slo_seconds is None:
            raise self.error("run has no SLO configured")
        if self.completed < self.offered:
            return False
        try:
            return self.p99 <= self.slo_seconds
        except ValueError:
            return False

    # -- summary --------------------------------------------------------
    def _losses(self) -> str:
        """`` (2 shed, 1 timed out)``, or empty when nothing was lost."""
        losses = [f"{count} {what}" for count, what in (
            (self.shed, "shed"), (self.rejected, "rejected"),
            (self.timed_out, "timed out"), (self.abandoned, "abandoned"))
            if count]
        return " (" + ", ".join(losses) + ")" if losses else ""

    def _with_latency(self, head: str, noun: str = "requests",
                      rate: str = "req/s") -> str:
        """*head* followed by p50/p99 and the goodput-vs-SLO verdict."""
        try:
            tail = (f", p50 {self.p50 * 1000:.1f} ms / p99 "
                    f"{self.p99 * 1000:.1f} ms")
        except ValueError:
            return head + f", no completed {noun}"
        if self.slo_seconds is not None:
            tail += (f", goodput {self.goodput:.1f} {rate} vs SLO "
                     f"{self.slo_seconds * 1000:.0f} ms "
                     f"({'met' if self.slo_met else 'MISSED'})")
        return head + tail


@dataclass
class ServeResult(SloStats):
    """Outcome of one open-loop serving run."""

    offered: int
    completed: int
    shed: int
    rejected: int
    timed_out: int
    abandoned: int
    wall_seconds: float
    #: Simulated time spent preparing the targets before serving
    #: started (the serving epoch on the simulation clock).
    prepare_seconds: float = 0.0
    #: The latency objective this run was judged against (seconds),
    #: or None when no SLO was configured.
    slo_seconds: Optional[float] = None
    #: Every offered request, in arrival order, with its timestamps.
    requests: list[Request] = field(default_factory=list)
    #: Device failures observed during the run.
    failures: list["FailureEvent"] = field(default_factory=list)
    #: Leading completed requests excluded from latency statistics
    #: (cold-start transient: empty batcher windows, cold EWMAs).
    warmup: int = 0

    def __post_init__(self) -> None:
        # Mirror PipelineResult: every offered request is accounted
        # for exactly once.
        accounted = (self.completed + self.shed + self.rejected
                     + self.timed_out + self.abandoned)
        if accounted != self.offered:
            raise FrameworkError(
                f"request accounting broken: {self.completed} "
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
                    raise FrameworkError(
                        f"{actual} requests in state {status!r} but "
                        f"the tally says {expected}")
        if self.warmup < 0:
            raise FrameworkError("warmup must be >= 0")

    # -- request views --------------------------------------------------
    def completed_requests(self) -> list[Request]:
        """Completed requests in arrival order."""
        return [r for r in self.requests if r.status == COMPLETED]

    def stage_latencies(self, stage: str) -> list[float]:
        """Per-stage latencies: queue_wait / batch_wait / service."""
        attr = {"queue_wait": "queue_wait",
                "batch_wait": "batch_wait",
                "service": "service_seconds"}.get(stage)
        if attr is None:
            raise FrameworkError(
                f"unknown stage {stage!r}; one of queue_wait, "
                "batch_wait, service")
        values = [getattr(r, attr) for r in self._steady_state()]
        return [v for v in values if v is not None]

    @property
    def degraded(self) -> bool:
        """True when any device failed or any request was abandoned."""
        return bool(self.failures) or self.abandoned > 0

    def per_backend_counts(self) -> dict[str, int]:
        """Completed requests per backend (routing balance check)."""
        counts: dict[str, int] = {}
        for r in self.completed_requests():
            assert r.backend is not None
            counts[r.backend] = counts.get(r.backend, 0) + 1
        return counts

    def summary(self) -> str:
        """One-line human-readable summary of the run."""
        return self._with_latency(
            f"{self.completed}/{self.offered} requests in "
            f"{self.wall_seconds:.2f} s{self._losses()}")
