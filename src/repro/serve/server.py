"""The online inference server: workload → queue → batcher → router.

:class:`InferenceServer` wires the serving layer together on one
simulated timeline, NCSw-style: register named targets, then ``run``
an open-loop workload through them.  Device preparation (stick boot,
graph allocation, host warm-up) happens before the measured window,
exactly as the batch framework does, so serving latency numbers are
steady-state numbers.

The run terminates when every offered request has resolved into one
of the five terminal states — completed, shed, rejected, timed out,
or abandoned — and the returned
:class:`~repro.serve.slo.ServeResult` enforces that accounting in
its constructor.  Everything is deterministic: a seeded workload plus
the DES kernel's determinism contract means two runs with the same
configuration produce byte-identical SLO reports.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import FrameworkError
from repro.ncsw.faults import FailureEvent
from repro.ncsw.targets import TargetDevice
from repro.serve.batcher import DynamicBatcher
from repro.serve.queue import POLICIES as ADMISSION_POLICIES
from repro.serve.queue import REJECT_NEWEST, AdmissionQueue
from repro.serve.router import ROUND_ROBIN, Backend, Router
from repro.serve.slo import ServeResult
from repro.serve.workload import Request, Workload
from repro.sim.core import Environment, Event

#: Maximum batcher wait (seconds) used when none is given: two
#: milliseconds, roughly one USB transfer — long enough to fill a
#: window under load, short enough to stay invisible in a 250 ms SLO.
DEFAULT_MAX_WAIT_S = 0.002


class InferenceServer:
    """Open-loop serving harness over prepared NCSw targets."""

    def __init__(self, *,
                 queue_depth: Optional[int] = 64,
                 admission: str = REJECT_NEWEST,
                 max_batch_size: Optional[int] = None,
                 max_wait_s: float = DEFAULT_MAX_WAIT_S,
                 policy: str = ROUND_ROBIN,
                 slo_seconds: Optional[float] = 0.250,
                 deadline_seconds: Optional[float] = None,
                 max_redirects: int = 1,
                 ewma_alpha: float = 0.2,
                 warmup: int = 0,
                 obs=None) -> None:
        if admission not in ADMISSION_POLICIES:
            raise FrameworkError(
                f"unknown admission policy {admission!r}; one of "
                f"{ADMISSION_POLICIES}")
        if slo_seconds is not None and slo_seconds <= 0:
            raise FrameworkError(
                f"slo_seconds must be positive, got {slo_seconds}")
        if warmup < 0:
            raise FrameworkError("warmup must be >= 0")
        self.queue_depth = queue_depth
        self.admission = admission
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.policy = policy
        self.slo_seconds = slo_seconds
        self.deadline_seconds = deadline_seconds
        self.max_redirects = max_redirects
        self.ewma_alpha = ewma_alpha
        self.warmup = warmup
        self.obs = obs
        self._targets: dict[str, TargetDevice] = {}

    def add_target(self, name: str, target: TargetDevice) -> None:
        """Register a serving backend under a unique name."""
        if name in self._targets:
            raise FrameworkError(f"duplicate target {name!r}")
        self._targets[name] = target

    # -- the run ---------------------------------------------------------
    def run(self, workload: Workload, num_requests: int) -> ServeResult:
        """Serve *num_requests* drawn from *workload*; blocks until
        every request has resolved and returns the accounting."""
        if not self._targets:
            raise FrameworkError("server needs at least one target")
        requests = workload.requests(
            num_requests, deadline_s=self.deadline_seconds)

        env = Environment()
        if self.obs is not None:
            self.obs.attach(env)

        state = _RunState(env, len(requests), warmup=self.warmup,
                          obs=env.obs)
        queue = AdmissionQueue(env, depth=self.queue_depth,
                               policy=self.admission,
                               on_drop=state.resolve)
        backends = [Backend(env, name, target)
                    for name, target in self._targets.items()]
        router = Router(env, backends, policy=self.policy,
                        max_redirects=self.max_redirects,
                        ewma_alpha=self.ewma_alpha,
                        on_complete=state.complete,
                        on_abandon=state.resolve)
        batcher = DynamicBatcher(env, queue, router,
                                 max_batch_size=self.max_batch_size,
                                 max_wait_s=self.max_wait_s,
                                 on_timeout=state.resolve)

        def main() -> Generator[Event, None, tuple[float, float]]:
            obs = env.obs
            prep = None
            if obs is not None:
                prep = obs.tracer.begin("prepare", track="serve",
                                        backends=len(backends))
            yield env.all_of([t.prepare(env)
                              for t in self._targets.values()])
            if obs is not None:
                obs.tracer.end(prep)
            t0 = env.now
            worker_procs = router.start()
            batcher_proc = batcher.run()
            yield env.process(_arrivals(env, requests, queue))
            yield state.all_resolved
            wall = env.now - t0
            # Orderly shutdown: pill the batcher, then the backends.
            # All work is resolved, so no pill can strand a request.
            queue.close()
            yield batcher_proc
            router.close()
            yield env.all_of(worker_procs)
            return wall, t0

        wall, epoch = env.run(until=env.process(main()))

        failures: list[FailureEvent] = []
        for target in self._targets.values():
            failures.extend(target.fault_stats().events)
        return ServeResult(
            offered=len(requests),
            completed=state.completed,
            shed=queue.shed_count,
            rejected=queue.rejected_count,
            timed_out=batcher.timed_out_count,
            abandoned=router.abandoned_count,
            wall_seconds=wall,
            prepare_seconds=epoch,
            slo_seconds=self.slo_seconds,
            requests=requests,
            failures=failures,
            warmup=min(self.warmup, state.completed),
        )


class _RunState:
    """Per-run resolution bookkeeping shared by the callbacks."""

    def __init__(self, env: Environment, offered: int, warmup: int,
                 obs) -> None:
        self.env = env
        self.offered = offered
        self.warmup = warmup
        self.obs = obs
        self.completed = 0
        self.resolved = 0
        self.all_resolved = env.event()

    def resolve(self, request: Request) -> None:
        """One request reached a non-completed terminal state."""
        self._count()

    def complete(self, batch: list[Request]) -> None:
        """A batch of requests completed; record latency metrics."""
        obs = self.obs
        for req in batch:
            self.completed += 1
            if obs is not None:
                metrics = obs.metrics
                if req.e2e_latency is not None:
                    metrics.histogram("serve.e2e_seconds").observe(
                        req.e2e_latency)
                if req.queue_wait is not None:
                    metrics.histogram(
                        "serve.queue_wait_seconds").observe(
                            req.queue_wait)
                if req.batch_wait is not None:
                    metrics.histogram(
                        "serve.batch_wait_seconds").observe(
                            req.batch_wait)
                if req.service_seconds is not None:
                    metrics.histogram(
                        "serve.service_seconds").observe(
                            req.service_seconds)
                metrics.counter("serve.completed").inc()
                if (self.warmup > 0
                        and self.completed == self.warmup):
                    # Steady-state window: drop the cold-start
                    # transient from the serving histograms.
                    for hist in list(metrics.histograms()):
                        if hist.name.startswith("serve."):
                            hist.reset()
            self._count()

    def _count(self) -> None:
        self.resolved += 1
        if self.resolved > self.offered:
            raise FrameworkError(
                "request resolved twice: serving accounting is "
                "broken")
        if self.resolved == self.offered:
            self.all_resolved.succeed()


def _arrivals(env: Environment, requests: list[Request],
              queue: AdmissionQueue) -> Generator[Event, None, None]:
    """Open-loop arrival process: requests land on their own clock.

    Workload arrival times are offsets from serving start; they are
    rebased onto the simulation clock here (device preparation has
    already consumed some simulated time).  Admission never stalls
    this loop — under the ``block`` policy the put pends in the
    background while arrivals keep their own schedule.
    """
    obs = env.obs
    epoch = env.now
    for request in requests:
        request.arrival_time += epoch
        if request.deadline_at is not None:
            request.deadline_at += epoch
        if request.arrival_time > env.now:
            yield env.timeout(request.arrival_time - env.now)
        if obs is not None:
            obs.metrics.counter("serve.offered").inc()
            # Backdate the arrival hop to the nominal arrival time so
            # the waterfall telescopes exactly to the e2e latency even
            # for same-instant burst arrivals.
            obs.reqtrace.begin(
                request, track="serve",
                t=obs.tracer.timestamp(request.arrival_time))
        queue.offer(request)
