"""Cluster-level accounting: per-host ServeResults rolled up.

The single-host invariant — every offered request resolves exactly
once — survives sharding in two parts:

* *within* a shard, each host's :class:`~repro.serve.slo.ServeResult`
  enforces it over the requests that host resolved;
* *across* shards, :class:`ClusterResult` enforces that no request
  was resolved by two hosts (request-id disjointness) and that the
  per-host offered counts plus frontend abandons sum back to the
  cluster's offered total.

Latency statistics are the serve layer's
:class:`~repro.serve.slo.SloStats` over the *merged* completion
stream (all hosts' completed requests ordered by completion time),
with the warmup transient trimmed once at cluster level, so cluster
goodput and p99 agree about which requests count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import FrameworkError
from repro.ncsw.faults import FailureEvent
from repro.serve.slo import ServeResult, SloStats
from repro.serve.workload import Request


@dataclass
class HostShard:
    """One host's slice of a cluster run."""

    rank: int  #: MPI rank (1-based; rank 0 is the frontend)
    name: str  #: host name (``host0``, or ``host0r2`` generation 2)
    result: ServeResult
    #: Simulated time the host was killed, or None if it survived.
    killed_at: Optional[float] = None
    #: Requests this host stranded at death (re-sharded or abandoned
    #: by the frontend).
    resharded: int = 0
    #: Simulated time the host joined the ring, or None (fixed-size
    #: runs: serving from the cluster epoch).
    activated_at: Optional[float] = None
    #: Simulated time a scale-in drain retired the host, or None.
    drained_at: Optional[float] = None

    def active_seconds(self, epoch: float, end: float) -> float:
        """Host-time this shard cost: activation (or the serving
        epoch) until death, drain, or the end of the run."""
        start = (self.activated_at if self.activated_at is not None
                 else epoch)
        if self.killed_at is not None:
            stop = self.killed_at
        elif self.drained_at is not None:
            stop = self.drained_at
        else:
            stop = end
        return max(0.0, stop - start)


@dataclass
class ClusterResult(SloStats):
    """Outcome of one sharded multi-host serving run."""

    offered: int
    shards: list[HostShard]
    wall_seconds: float
    prepare_seconds: float = 0.0
    slo_seconds: Optional[float] = None
    #: Leading completed requests (merged completion order) excluded
    #: from latency statistics — trimmed once, cluster-wide.
    warmup: int = 0
    #: Requests abandoned at the frontend: no live host remained to
    #: take them.
    frontend_abandoned: int = 0
    abandoned_requests: list[Request] = field(default_factory=list)
    #: Host- and device-level failures, in injection order.
    failures: list[FailureEvent] = field(default_factory=list)
    #: Frontend routing tallies.
    sharded: int = 0     #: requests pushed to a shard channel (incl. re-shards)
    spilled: int = 0     #: routed off the hash-preferred host (load spill)
    resharded: int = 0   #: re-pushed after their owner host died
    #: Committed scale actions, in commit order (empty: fixed run).
    scale_events: list = field(default_factory=list)
    #: Pool size the frontend could scale across (0: fixed run,
    #: every shard active throughout).
    pool_hosts: int = 0

    def __post_init__(self) -> None:
        if not self.shards:
            raise FrameworkError("cluster result needs >= 1 shard")
        if self.warmup < 0:
            raise FrameworkError("warmup must be >= 0")
        if self.frontend_abandoned != len(self.abandoned_requests):
            raise FrameworkError(
                f"{self.frontend_abandoned} frontend abandons but "
                f"{len(self.abandoned_requests)} abandoned requests "
                "recorded")
        # Roll-up invariant, part 1: per-host resolutions plus
        # frontend abandons account for every offered request.
        resolved = sum(s.result.offered for s in self.shards)
        if resolved + self.frontend_abandoned != self.offered:
            raise FrameworkError(
                "cluster accounting broken: "
                f"{resolved} host-resolved + {self.frontend_abandoned}"
                f" frontend-abandoned != {self.offered} offered")
        # Part 2: no request resolved by two hosts (exactly once).
        ids = [r.request_id
               for s in self.shards for r in s.result.requests]
        ids.extend(r.request_id for r in self.abandoned_requests)
        if len(ids) != len(set(ids)):
            seen: set[int] = set()
            dup = next(i for i in ids if i in seen or seen.add(i))
            raise FrameworkError(
                f"request {dup} resolved by more than one host: the "
                "cluster exactly-once invariant is broken")

    # -- merged request views -------------------------------------------
    def completed_requests(self) -> list[Request]:
        """All completed requests, merged in completion order."""
        merged = [r for s in self.shards
                  for r in s.result.completed_requests()]
        merged.sort(key=lambda r: (r.completed_at, r.request_id))
        return merged

    # -- tallies ---------------------------------------------------------
    @property
    def num_hosts(self) -> int:
        """Number of host shards in the cluster."""
        return len(self.shards)

    @property
    def completed(self) -> int:
        """Completed requests across every host."""
        return sum(s.result.completed for s in self.shards)

    @property
    def shed(self) -> int:
        """Requests shed by host admission queues."""
        return sum(s.result.shed for s in self.shards)

    @property
    def rejected(self) -> int:
        """Requests rejected by host admission queues."""
        return sum(s.result.rejected for s in self.shards)

    @property
    def timed_out(self) -> int:
        """Requests that missed their deadline on any host."""
        return sum(s.result.timed_out for s in self.shards)

    @property
    def abandoned(self) -> int:
        """Host-level abandons plus frontend abandons."""
        return (sum(s.result.abandoned for s in self.shards)
                + self.frontend_abandoned)

    @property
    def degraded(self) -> bool:
        """True when any host/device failed or work was abandoned."""
        return bool(self.failures) or self.abandoned > 0

    # -- elastic-scaling accounting --------------------------------------
    @property
    def end_seconds(self) -> float:
        """Absolute sim time the run ended (epoch + wall)."""
        return self.prepare_seconds + self.wall_seconds

    @property
    def host_seconds(self) -> float:
        """Summed active host time — the run's capacity cost.

        Each shard bills from its activation (ring join) to its
        death, drain, or the end of the run; a fixed-N run therefore
        bills exactly ``N * wall_seconds`` for the survivors.  This
        is the x-axis of the cost-vs-SLO frontier.
        """
        epoch = self.prepare_seconds
        end = self.end_seconds
        return sum(s.active_seconds(epoch, end) for s in self.shards)

    @property
    def drained_hosts(self) -> int:
        """Shards retired by a scale-in drain."""
        return sum(1 for s in self.shards
                   if s.drained_at is not None)

    @property
    def scale_outs(self) -> int:
        """Committed scale-out actions."""
        from repro.cluster.autoscale import SCALE_OUT
        return sum(1 for e in self.scale_events
                   if e.action == SCALE_OUT)

    @property
    def scale_ins(self) -> int:
        """Committed scale-in (drain) actions."""
        from repro.cluster.autoscale import SCALE_IN
        return sum(1 for e in self.scale_events
                   if e.action == SCALE_IN)

    def per_host_counts(self) -> dict[str, int]:
        """Completed requests per host (sharding balance check)."""
        return {s.name: s.result.completed for s in self.shards}

    def summary(self) -> str:
        """One-line human-readable summary of the run."""
        dead = sum(1 for s in self.shards if s.killed_at is not None)
        head = (f"{self.completed}/{self.offered} requests across "
                f"{self.num_hosts} hosts in {self.wall_seconds:.2f} s")
        if dead:
            head += f" ({dead} host{'s' if dead > 1 else ''} died)"
        return self._with_latency(head)
