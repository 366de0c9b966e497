"""One simulated serving host (an MPI rank) in the cluster.

A :class:`HostRank` is a full single-host serving pipeline — admission
queue, dynamic batcher, router, one backend target — fed by an ingest
process that drains the host's :class:`~repro.mpi.stream.StreamWindow`
shard channel.  It reuses the ``repro.serve`` components verbatim,
namespaced under ``rank<N>`` so per-host queues, batchers and backends
stay distinguishable in one observability session.

Resolution flows upward: every terminal state (completed, shed,
rejected, timed out, abandoned) is tallied here *and* reported to the
cluster frontend via ``on_resolve``, whose ownership ledger enforces
the cluster-wide exactly-once invariant.

Death is a first-class state: :meth:`kill` tears the whole rank down
mid-flight — the shard channel is aborted, the ingest interrupted,
the queue drained, the batcher and backend halted — leaving every
unresolved request it owned PENDING for the frontend to re-shard.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.errors import FrameworkError
from repro.mpi.stream import StreamWindow
from repro.ncsw.faults import FailureEvent
from repro.ncsw.targets import TargetDevice
from repro.serve.batcher import DynamicBatcher
from repro.serve.queue import BLOCK, REJECT_NEWEST, AdmissionQueue
from repro.serve.router import Backend, Router
from repro.serve.slo import ServeResult
from repro.serve.workload import (
    ABANDONED,
    COMPLETED,
    REJECTED,
    SHED,
    TIMED_OUT,
    Request,
)
from repro.sim.core import Environment, Event, Interrupt, Process


class HostRank:
    """A serving host behind one shard channel of the cluster."""

    def __init__(self, env: Environment, rank: int, name: str,
                 target: TargetDevice, stream: StreamWindow,
                 on_resolve: Callable[["HostRank", Request], None],
                 *,
                 queue_depth: Optional[int] = 64,
                 admission: str = REJECT_NEWEST,
                 max_batch_size: Optional[int] = None,
                 max_wait_s: float = 0.002,
                 max_redirects: int = 1,
                 ewma_alpha: float = 0.2) -> None:
        if rank < 1:
            raise FrameworkError(
                f"host ranks start at 1 (rank 0 is the frontend), "
                f"got {rank}")
        self.env = env
        self.rank = rank
        self.name = name
        self.target = target
        self.stream = stream
        self.on_resolve = on_resolve
        prefix = f"rank{rank}"
        self.metrics_prefix = prefix
        self.queue = AdmissionQueue(env, depth=queue_depth,
                                    policy=admission,
                                    on_drop=self._resolve_dropped,
                                    name=prefix)
        self.backend = Backend(env, name, target,
                               metrics_prefix=prefix)
        self.router = Router(env, [self.backend],
                             max_redirects=max_redirects,
                             ewma_alpha=ewma_alpha,
                             on_complete=self._complete,
                             on_abandon=self._resolve_dropped,
                             metrics_prefix=prefix)
        self.batcher = DynamicBatcher(env, self.queue, self.router,
                                      max_batch_size=max_batch_size,
                                      max_wait_s=max_wait_s,
                                      on_timeout=self._resolve_dropped,
                                      metrics_prefix=prefix)
        # -- terminal-state tallies (this host's ServeResult) ---------
        self.completed = 0
        self.shed = 0
        self.rejected = 0
        self.timed_out = 0
        self.abandoned = 0
        #: Every request this host resolved, in resolution order.
        self.resolved: list[Request] = []
        self.dead = False
        self.died_at: Optional[float] = None
        self.failure: Optional[FailureEvent] = None
        #: Unresolved requests stranded by :meth:`kill` (count).
        self.resharded = 0
        # -- autoscaling lifecycle (see repro.cluster.autoscale) -------
        #: Pool slot this generation serves (set by the frontend).
        self.slot: Optional[int] = None
        #: Sim time this host joined the ring, or None (fixed runs
        #: leave it None: active from the serving epoch).
        self.activated_at: Optional[float] = None
        #: True while a scale-in drain is in progress (out of the
        #: ring, still resolving its owned backlog).
        self.draining = False
        #: Sim time a scale-in drain completed, or None.
        self.drained_at: Optional[float] = None
        self._ingest_proc: Optional[Process] = None
        self._batcher_proc: Optional[Event] = None
        self._worker_procs: list[Event] = []
        self._lifecycle_proc: Optional[Event] = None

    # -- lifecycle -------------------------------------------------------
    def prepare(self) -> Event:
        """Boot the host's target (sticks, graph, warm-up)."""
        return self.target.prepare(self.env)

    def start(self) -> Event:
        """Fork ingest + batcher + backend; returns the lifecycle
        process, which completes at orderly shutdown or death."""
        self._worker_procs = self.router.start()
        self._batcher_proc = self.batcher.run()
        self._ingest_proc = self.env.process(self._ingest())
        self._lifecycle_proc = self.env.process(self._lifecycle())
        return self._lifecycle_proc

    def _ingest(self) -> Generator[Event, None, None]:
        """Drain the shard channel into the admission queue."""
        try:
            while True:
                item = yield from self.stream.receive()
                if item is None:
                    break  # EOS: stream closed (or aborted at death)
                if self.dead:
                    # Straggler raced the abort; the frontend already
                    # re-sharded it, so it must not enter this queue.
                    continue
                event = self.queue.offer(item)
                if (self.queue.policy == BLOCK and event is not None
                        and not event.triggered):
                    # Blocking admission: stop popping until the put
                    # lands, so backpressure reaches the shard channel
                    # (its window fills and the frontend spills).
                    yield event
        except Interrupt:
            return  # killed while waiting: channel already aborted
        if not self.dead:
            self.queue.close()

    def _lifecycle(self) -> Generator[Event, None, None]:
        """Orderly shutdown after the stream closes (live hosts)."""
        yield self._ingest_proc
        if self.dead:
            return  # batcher/backend were halted, not drained
        yield self._batcher_proc
        self.router.close()
        yield self.env.all_of(self._worker_procs)

    def kill(self) -> None:
        """Tear the whole rank down mid-flight (host failure).

        Order matters: mark dead first (silences late callbacks and
        straggler ingests), interrupt the ingest, abort the shard
        channel (releasing blocked frontend pushes), drain the queue,
        then halt the batcher and backend so no in-flight batch ever
        stamps completion on a request the frontend is re-sharding.
        """
        if self.dead:
            return
        self.dead = True
        self.died_at = self.env.now
        if self._ingest_proc is not None and self._ingest_proc.is_alive:
            self._ingest_proc.interrupt("host killed")
        self.stream.abort()
        self.queue.drain()
        self.batcher.halt()
        self.backend.halt()

    # -- resolution callbacks (wired into the serve components) ---------
    def _resolve_dropped(self, request: Request) -> None:
        """A request reached a non-completed terminal state here."""
        if request.status == SHED:
            self.shed += 1
        elif request.status == REJECTED:
            self.rejected += 1
        elif request.status == TIMED_OUT:
            self.timed_out += 1
        elif request.status == ABANDONED:
            self.abandoned += 1
        else:  # pragma: no cover - defensive
            raise FrameworkError(
                f"request {request.request_id} dropped in "
                f"non-terminal state {request.status!r}")
        self.resolved.append(request)
        self.on_resolve(self, request)

    def _complete(self, batch: list[Request]) -> None:
        """A batch completed on this host's backend."""
        obs = self.env.obs
        for request in batch:
            self.completed += 1
            self.resolved.append(request)
            if obs is not None:
                obs.metrics.counter(
                    f"{self.metrics_prefix}.completed").inc()
                if request.e2e_latency is not None:
                    obs.metrics.histogram(
                        f"{self.metrics_prefix}.e2e_seconds").observe(
                            request.e2e_latency)
            self.on_resolve(self, request)

    # -- accounting ------------------------------------------------------
    def result(self, slo_seconds: Optional[float],
               wall_seconds: float,
               prepare_seconds: float) -> ServeResult:
        """This host's shard of the cluster accounting.

        ``offered`` is the number of requests this host *resolved* —
        ownership of anything it never resolved moved back to the
        frontend at death — so the per-host ServeResult satisfies the
        same exactly-once invariant as a single-host run.  Warmup
        trimming happens at cluster level, over the merged completion
        order, not per shard.
        """
        failures = list(self.target.fault_stats().events)
        if self.failure is not None:
            failures.append(self.failure)
        requests = sorted(self.resolved,
                          key=lambda r: (r.arrival_time, r.request_id))
        return ServeResult(
            offered=len(requests),
            completed=self.completed,
            shed=self.shed,
            rejected=self.rejected,
            timed_out=self.timed_out,
            abandoned=self.abandoned,
            wall_seconds=wall_seconds,
            prepare_seconds=prepare_seconds,
            slo_seconds=slo_seconds,
            requests=requests,
            failures=failures,
            warmup=0,
        )
