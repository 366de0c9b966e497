"""Multi-backend dispatch: round-robin, least-outstanding, EWMA.

A :class:`Backend` wraps one prepared
:class:`~repro.ncsw.targets.TargetDevice` (an ``IntelVPU`` rig, the
CPU, the GPU) behind a serial dispatch queue: batches execute one at
a time per backend, while different backends run concurrently on the
shared simulated clock.  Inside a VPU backend, PR 2's fault-tolerant
:class:`~repro.ncsw.scheduler.MultiVPUScheduler` still fans each
batch across the sticks and survives individual stick deaths.

The :class:`Router` picks the backend for each batch:

* ``round-robin`` — cycle through live backends (the paper's static
  policy, lifted one level up);
* ``least-outstanding`` — the backend with the fewest queued +
  in-flight requests (classic load-aware routing);
* ``latency-ewma`` — the backend with the lowest exponentially
  weighted moving average of per-request service latency (adapts to
  heterogeneous backends and to degradation after stick deaths).

Re-routing: when a batch comes back with requests the backend could
not serve (its sticks died past the retry budget), the router
re-dispatches them to another live backend, up to ``max_redirects``
attempts per request, and only then abandons them — a dead stick
costs latency, not requests.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.errors import FrameworkError
from repro.ncsw.sources import WorkItem
from repro.ncsw.targets import TargetDevice
from repro.serve.workload import ABANDONED, COMPLETED, Request
from repro.sim.core import Environment, Event, Interrupt, Process
from repro.sim.resources import Store

#: Routing policies.
ROUND_ROBIN = "round-robin"
LEAST_OUTSTANDING = "least-outstanding"
LATENCY_EWMA = "latency-ewma"

POLICIES = (ROUND_ROBIN, LEAST_OUTSTANDING, LATENCY_EWMA)


class Backend:
    """One serving backend: a target device behind a dispatch queue."""

    def __init__(self, env: Environment, name: str,
                 target: TargetDevice,
                 max_pending_batches: int = 1,
                 metrics_prefix: str = "serve") -> None:
        if max_pending_batches < 1:
            raise FrameworkError(
                f"max_pending_batches must be >= 1, got "
                f"{max_pending_batches}")
        self.env = env
        self.name = name
        self.target = target
        #: Metric/track namespace — cluster hosts use ``rank<N>`` so
        #: per-host backends stay distinguishable in one obs session.
        self.metrics_prefix = metrics_prefix
        self.track = f"{metrics_prefix}/{name}"
        # Bounded dispatch: one batch executes while at most
        # ``max_pending_batches`` wait here.  The bound is what pushes
        # overload back into the admission queue (where shed/reject
        # policy lives) instead of letting backlog hide in an
        # unbounded per-backend buffer.
        self._dispatch: Store = Store(env,
                                      capacity=max_pending_batches)
        #: Requests queued at or executing on this backend.
        self.outstanding = 0
        #: EWMA of per-request service seconds (None until sampled).
        self.ewma_latency: Optional[float] = None
        self.served = 0
        self.batches = 0
        self._process: Optional[Process] = None

    @property
    def alive(self) -> bool:
        """False once the backend can no longer serve anything."""
        return self.target.alive

    @property
    def preferred_batch_size(self) -> int:
        """The batch size this backend's hardware path prefers."""
        return self.target.preferred_batch_size

    def submit(self, batch: list[Request]) -> Event:
        """Queue *batch* for execution.

        Returns the put event: it pends while the backend's dispatch
        slots are full, so a caller that yields it feels backpressure
        (and one that doesn't — the re-route path — still lands the
        batch once a slot frees)."""
        self.outstanding += len(batch)
        event = self._dispatch.put(batch)
        obs = self.env.obs
        if obs is not None:
            obs.metrics.gauge(
                f"{self.metrics_prefix}.outstanding.{self.name}").set(
                    self.outstanding)
        return event

    def close(self) -> None:
        """Poison-pill the serve loop (call once no work remains)."""
        self._dispatch.put(None)

    def halt(self) -> None:
        """Kill the serve loop mid-flight (cluster host death).

        The in-flight batch, if any, never gets its completion stamps:
        its requests stay PENDING and are re-sharded by the cluster
        frontend.  Queued batches stay in the dispatch store — the
        frontend's ownership ledger, not this store, is the source of
        truth for what must be re-served.
        """
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("halt")

    def start(self, router: "Router", ewma_alpha: float) -> Event:
        """Fork the serve loop; returns its process event."""
        self._process = self.env.process(
            self._serve_loop(router, ewma_alpha))
        return self._process

    def _serve_loop(self, router: "Router", alpha: float
                    ) -> Generator[Event, None, None]:
        obs = self.env.obs
        try:
            while True:
                batch = yield self._dispatch.get()
                if batch is None:
                    return
                t0 = self.env.now
                for req in batch:
                    req.dispatched_at = t0
                    req.backend = self.name
                    req.batch_size = len(batch)
                    if obs is not None:
                        obs.reqtrace.hop(req.trace, "dispatched",
                                         track=self.track,
                                         backend=self.name,
                                         batch=len(batch))
                items = [WorkItem(index=req.request_id,
                                  image_id=req.request_id, label=None,
                                  tensor=req.tensor, trace=req.trace)
                         for req in batch]
                span = None
                if obs is not None:
                    span = obs.tracer.begin(
                        "serve_batch", track=self.track,
                        size=len(batch))
                records = yield from self.target.execute(items)
                if obs is not None:
                    obs.tracer.end(span)
                by_id = {r.index: r for r in records}
                completed = [r for r in batch
                             if r.request_id in by_id]
                missing = [r for r in batch
                           if r.request_id not in by_id]
                now = self.env.now
                if completed:
                    # Average over the requests actually served: a
                    # batch that lost its tail to stick deaths spent
                    # the same wall time on fewer completions, so
                    # dividing by the full batch size would report a
                    # degrading backend as *faster* — and latency-ewma
                    # routing would steer more load at it.
                    per_request = (now - t0) / len(completed)
                    self.ewma_latency = (
                        per_request if self.ewma_latency is None
                        else alpha * per_request
                        + (1.0 - alpha) * self.ewma_latency)
                    self.served += len(completed)
                    self.batches += 1
                for req in completed:
                    req.completed_at = now
                    req.status = COMPLETED
                    req.record = by_id[req.request_id]
                    if obs is not None:
                        obs.reqtrace.hop(req.trace, "completed",
                                         track=self.track)
                self.outstanding -= len(batch)
                if obs is not None:
                    obs.metrics.gauge(
                        f"{self.metrics_prefix}.outstanding."
                        f"{self.name}").set(self.outstanding)
                router.on_batch_done(self, completed, missing)
        except Interrupt:
            # Halted: host died, batch ownership reverts to the
            # caller's ledger (the cluster frontend re-shards).  This
            # backend will never serve again, so its queued +
            # in-flight count is no longer meaningful — zero both the
            # counter and the gauge, otherwise the stale value
            # pollutes timelines and the queue-depth-slope alert for
            # the rest of the session.
            self.outstanding = 0
            if obs is not None:
                obs.metrics.gauge(
                    f"{self.metrics_prefix}.outstanding."
                    f"{self.name}").set(0)
            return


class Router:
    """Chooses a backend per batch and owns the re-routing loop."""

    def __init__(self, env: Environment, backends: list[Backend],
                 policy: str = ROUND_ROBIN,
                 max_redirects: int = 1,
                 ewma_alpha: float = 0.2,
                 on_complete: Optional[
                     Callable[[list[Request]], None]] = None,
                 on_abandon: Optional[
                     Callable[[Request], None]] = None,
                 metrics_prefix: str = "serve") -> None:
        if not backends:
            raise FrameworkError("router needs at least one backend")
        if policy not in POLICIES:
            raise FrameworkError(
                f"unknown routing policy {policy!r}; one of "
                f"{POLICIES}")
        if max_redirects < 0:
            raise FrameworkError("max_redirects must be >= 0")
        if not 0.0 < ewma_alpha <= 1.0:
            raise FrameworkError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.env = env
        self.backends = backends
        self.policy = policy
        self.max_redirects = max_redirects
        self.ewma_alpha = ewma_alpha
        self.on_complete = on_complete
        self.on_abandon = on_abandon
        #: Metric/track namespace — cluster hosts use ``rank<N>``.
        self.metrics_prefix = metrics_prefix
        self._rr_next = 0
        self.abandoned_count = 0

    def start(self) -> list[Event]:
        """Fork every backend's serve loop."""
        return [b.start(self, self.ewma_alpha) for b in self.backends]

    def close(self) -> None:
        """Poison-pill every backend (call once all work is resolved)."""
        for backend in self.backends:
            backend.close()

    # -- selection ------------------------------------------------------
    def _live(self) -> list[Backend]:
        return [b for b in self.backends if b.alive]

    def peek_next(self) -> Optional[Backend]:
        """The backend the next batch would go to (no state change)."""
        return self._select(advance=False)

    def next_backend(self) -> Optional[Backend]:
        """Select (and for round-robin, consume) the next backend."""
        return self._select(advance=True)

    def _select(self, advance: bool) -> Optional[Backend]:
        live = self._live()
        if not live:
            return None
        if self.policy == ROUND_ROBIN:
            # Scan from the cursor so dead backends drop out of the
            # rotation without stalling it.
            n = len(self.backends)
            for k in range(n):
                candidate = self.backends[(self._rr_next + k) % n]
                if candidate.alive:
                    if advance:
                        self._rr_next = (self._rr_next + k + 1) % n
                    return candidate
            return None
        if self.policy == LEAST_OUTSTANDING:
            return min(live, key=lambda b: (b.outstanding,
                                            self.backends.index(b)))
        # latency-ewma: unsampled backends first (they need a probe),
        # then lowest moving-average latency; ties by registration.
        return min(live, key=lambda b: (
            b.ewma_latency is not None,
            b.ewma_latency if b.ewma_latency is not None else 0.0,
            self.backends.index(b)))

    # -- dispatch -------------------------------------------------------
    def dispatch(self, batch: list[Request]) -> Event:
        """Route *batch* to a live backend, or abandon it.

        Returns an event that triggers once the batch occupies a
        dispatch slot (immediately when abandoning) — the batcher
        yields it so dispatch backpressure reaches the admission
        queue."""
        backend = self.next_backend()
        if backend is None:
            for req in batch:
                self._abandon(req)
            return self.env.timeout(0.0)
        obs = self.env.obs
        if obs is not None:
            obs.metrics.counter(f"{self.metrics_prefix}.batches").inc()
        return backend.submit(batch)

    def on_batch_done(self, backend: Backend,
                      completed: list[Request],
                      missing: list[Request]) -> None:
        """Called by a backend after each batch: record + re-route."""
        if completed and self.on_complete is not None:
            self.on_complete(completed)
        if not missing:
            return
        obs = self.env.obs
        retry: list[Request] = []
        for req in missing:
            if req.redirects >= self.max_redirects:
                self._abandon(req)
                continue
            req.redirects += 1
            retry.append(req)
        if not retry:
            return
        if obs is not None:
            obs.metrics.counter(
                f"{self.metrics_prefix}.redirects").inc(len(retry))
            obs.tracer.instant(
                "batch_rerouted", track=self.metrics_prefix,
                from_backend=backend.name, requests=len(retry))
        self.dispatch(retry)

    def _abandon(self, req: Request) -> None:
        self.abandoned_count += 1
        req.status = ABANDONED
        obs = self.env.obs
        if obs is not None:
            obs.metrics.counter(
                f"{self.metrics_prefix}.abandoned").inc()
            obs.tracer.instant("request_abandoned",
                               track=self.metrics_prefix,
                               request=req.request_id)
            obs.reqtrace.hop(req.trace, "abandoned",
                             track=self.metrics_prefix)
        if self.on_abandon is not None:
            self.on_abandon(req)
