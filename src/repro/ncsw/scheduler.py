"""Multi-VPU scheduler — the paper's Fig. 4 execution timeline.

One worker process per NCS device (the "OpenMP thread" analogue),
static round-robin assignment of work items to devices, and
double-buffered ``load_tensor`` / ``get_result`` so the USB transfer of
item *k+1* overlaps the on-device execution of item *k* — exactly the
decoupled pattern Listing 1 demonstrates.

Two knobs exist for ablations:

* ``overlap=False`` serialises load -> get per item (quantifies what
  the Listing-1 overlap buys);
* ``dynamic=True`` replaces the paper's static round-robin ("We follow
  a simple static scheduling (i.e., round-robin)", §III) with a
  pull-based shared queue — workers take the next item when free,
  which matters once per-inference latency varies (jitter, thermal
  throttling) and is pointless when it doesn't.

Dispatch always fails over: a device whose call fails is written off
in a :class:`~repro.ncs.health.HealthMonitor`, its in-flight and
unstarted items drain back to a shared pool, and rescue rounds
round-robin them over the survivors with bounded retry/backoff.
A stick already dead when a batch starts never enters the rotation.
``call_timeout`` arms a per-call NCAPI deadline — the only way to
detect a *hung* firmware, which fails no call and raises no error.
With no failure, the failover bookkeeping schedules no simulation
events of its own.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Optional

import numpy as np

from repro.errors import (DeviceBusy, DeviceClosed, DeviceLost,
                          DeviceTimeout, FrameworkError, ThermalShutdown,
                          USBError)
from repro.ncs.health import DEAD, HEALTHY, HealthMonitor
from repro.ncs.ncapi import GraphHandle
from repro.ncsw.faults import FailureEvent, FaultStats
from repro.ncsw.results import InferenceRecord
from repro.ncsw.sources import WorkItem
from repro.sim.core import Environment, Event
from repro.sim.resources import Store

#: Errors a worker treats as "this device is gone":
#: lost/unplugged, thermally shut down, hung past its deadline,
#: persistently busy, closed under us, or the bus itself failing.
FAILOVER_ERRORS = (DeviceLost, DeviceTimeout, DeviceBusy, DeviceClosed,
                   USBError)


class MultiVPUScheduler:
    """Dispatches work items across multiple NCS graph handles."""

    def __init__(self, env: Environment,
                 graphs: list[GraphHandle],
                 overlap: bool = True,
                 dynamic: bool = False,
                 call_timeout: Optional[float] = None,
                 max_retries: int = 3,
                 retry_backoff_s: float = 1e-3) -> None:
        if not graphs:
            raise FrameworkError("scheduler needs at least one device")
        if call_timeout is not None and call_timeout <= 0:
            raise FrameworkError(
                f"call_timeout must be positive, got {call_timeout}")
        if max_retries < 0:
            raise FrameworkError("max_retries must be >= 0")
        if retry_backoff_s < 0:
            raise FrameworkError("retry_backoff_s must be >= 0")
        self.env = env
        self.graphs = graphs
        self.overlap = overlap
        self.dynamic = dynamic
        self.call_timeout = call_timeout
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.records: list[InferenceRecord] = []
        # Degraded-mode accounting (stays empty on healthy runs).
        self.failures: list[FailureEvent] = []
        self.reassigned = 0
        self.abandoned: list[WorkItem] = []
        self.health = HealthMonitor(env)
        self._dead: set[int] = set()  # graph indices out of rotation
        self._requeue: list[WorkItem] = []
        self._attempts: dict[int, int] = {}

    def run(self, items: list[WorkItem]) -> Event:
        """Process *items*; completes when every result is read."""
        return self.env.process(self._run(items))

    def fault_stats(self) -> FaultStats:
        """Degraded-mode accounting for this scheduler's run."""
        return FaultStats(events=list(self.failures),
                          reassigned=self.reassigned,
                          abandoned=len(self.abandoned))

    def _run(self, items: list[WorkItem]) -> Generator[Event, None, None]:
        # Devices dead before this batch (a kill in an earlier batch,
        # say) never enter the rotation and raise no fresh failure
        # event — they already had theirs.
        live: list[int] = []
        for idx, graph in enumerate(self.graphs):
            dead = graph.device.dead
            self.health.register(graph.device_id,
                                 DEAD if dead else HEALTHY)
            if dead:
                self._dead.add(idx)
            else:
                live.append(idx)
        if not live:
            self._abandon(items)
            return
        if self.dynamic:
            yield from self._run_dynamic(items)
            return
        # Static round-robin over the live devices, as §III says; fork
        # one worker per device (Fig. 4 step 1), join at the end
        # (step 5).
        assignments: dict[int, list[WorkItem]] = {i: [] for i in live}
        for k, item in enumerate(items):
            assignments[live[k % len(live)]].append(item)
        workers = [self.env.process(self._worker(
                       self.graphs[idx], work, idx))
                   for idx, work in assignments.items() if work]
        if workers:
            yield self.env.all_of(workers)
        yield from self._rescue_static()

    def _rescue_static(self) -> Generator[Event, None, None]:
        """Re-dispatch drained items over the survivors, in rounds."""
        round_no = 0
        while self._requeue:
            live = [idx for idx, g in enumerate(self.graphs)
                    if idx not in self._dead and not g.device.dead]
            if not live:
                self._abandon(self._requeue)
                self._requeue = []
                return
            batch = sorted(self._requeue, key=lambda it: it.index)
            self._requeue = []
            self.reassigned += len(batch)
            round_no += 1
            if self.retry_backoff_s > 0:
                yield self.env.timeout(self.retry_backoff_s * round_no)
            assignments = {i: [] for i in live}
            for k, item in enumerate(batch):
                assignments[live[k % len(live)]].append(item)
            workers = [self.env.process(self._worker(
                           self.graphs[idx], work, idx))
                       for idx, work in assignments.items() if work]
            if workers:
                yield self.env.all_of(workers)

    def _worker(self, graph: GraphHandle, work: list[WorkItem],
                device_index: int) -> Generator[Event, None, None]:
        device_name = f"vpu{device_index}"
        todo: Deque[WorkItem] = deque(work)
        pending: list[WorkItem] = []
        try:
            if self.overlap:
                yield from self._worker_overlapped(
                    graph, todo, pending, device_name)
            else:
                yield from self._worker_serial(
                    graph, todo, device_name)
        except FAILOVER_ERRORS as exc:
            self._handle_failure(graph, device_index, exc,
                                 pending + list(todo))

    def _worker_overlapped(self, graph: GraphHandle,
                           todo: Deque[WorkItem],
                           pending: list[WorkItem],
                           device_name: str
                           ) -> Generator[Event, None, None]:
        # Prime the pipeline with the first tensor, then keep one in
        # flight: load k+1, collect k.  The caller owns
        # ``todo``/``pending``: on failure, everything submitted-but-
        # uncollected plus everything unstarted is exactly
        # ``pending + todo``.
        submit_times: dict[int, float] = {}
        first = todo[0]
        submit_times[first.index] = self.env.now
        yield from self._load(graph, first, device_name)
        pending.append(todo.popleft())
        while todo:
            nxt = todo[0]
            submit_times[nxt.index] = self.env.now
            yield from self._load(graph, nxt, device_name)
            pending.append(todo.popleft())
            result, item = yield from graph.get_result_inline(
                timeout=self.call_timeout)
            pending.remove(item)
            self._record(item, result, device_name,
                         submit_times[item.index])
        while pending:
            result, item = yield from graph.get_result_inline(
                timeout=self.call_timeout)
            pending.remove(item)
            self._record(item, result, device_name,
                         submit_times[item.index])

    def _worker_serial(self, graph: GraphHandle,
                       todo: Deque[WorkItem],
                       device_name: str
                       ) -> Generator[Event, None, None]:
        while todo:
            item = todo[0]  # popped only once the result is in hand
            t0 = self.env.now
            yield from self._load(graph, item, device_name)
            result, got = yield from graph.get_result_inline(
                timeout=self.call_timeout)
            todo.popleft()
            self._record(got, result, device_name, t0)

    def _load(self, graph: GraphHandle, item: WorkItem,
              device_name: str) -> Generator[Event, None, None]:
        """``load_tensor`` with bounded retry on transient busyness."""
        attempt = 0
        while True:
            try:
                yield from graph.load_tensor_inline(
                    item.tensor, user=item, timeout=self.call_timeout)
                return
            except DeviceBusy:
                attempt += 1
                if attempt > self.max_retries:
                    raise  # persistently busy: give up on the device
                obs = self.env.obs
                if obs is not None:
                    obs.metrics.counter("scheduler.busy_retries").inc()
                yield self.env.timeout(self.retry_backoff_s * attempt)

    # -- dynamic (pull-based) variant ----------------------------------
    def _run_dynamic(self, items: list[WorkItem]
                     ) -> Generator[Event, None, None]:
        # No poison pills: a drained-then-refilled queue (failover
        # putting items back) must not leave work stranded behind a
        # pill.  Workers exit when the queue is empty; rescue rounds
        # re-fork survivors while requeued items remain.
        obs = self.env.obs
        queue: Store = Store(self.env)
        for item in items:
            queue.put(item)
        if obs is not None:
            obs.metrics.gauge("scheduler.queue_depth").set(len(items))
        round_no = 0
        while True:
            live = [idx for idx, g in enumerate(self.graphs)
                    if idx not in self._dead and not g.device.dead]
            if not live or not queue.items:
                break
            workers = [self.env.process(self._dynamic_worker(
                           self.graphs[idx], queue, idx))
                       for idx in live]
            yield self.env.all_of(workers)
            if queue.items:  # a failover requeued work: back off, retry
                round_no += 1
                if self.retry_backoff_s > 0:
                    yield self.env.timeout(
                        self.retry_backoff_s * round_no)
        if queue.items:  # no survivors left for the remainder
            self._abandon(list(queue.items))
            queue.items.clear()

    def _dynamic_worker(self, graph: GraphHandle, queue: Store,
                        device_index: int
                        ) -> Generator[Event, None, None]:
        device_name = f"vpu{device_index}"
        obs = self.env.obs
        while queue.items:
            item = yield queue.get()
            if obs is not None:
                obs.metrics.gauge("scheduler.queue_depth").set(
                    len(queue.items))
            t0 = self.env.now
            try:
                yield from self._load(graph, item, device_name)
                result, got = yield from graph.get_result_inline(
                    timeout=self.call_timeout)
            except FAILOVER_ERRORS as exc:
                self._handle_failure(graph, device_index, exc, [item],
                                     queue=queue)
                return
            self._record(got, result, device_name, t0)

    # -- failure handling -----------------------------------------------
    def _handle_failure(self, graph: GraphHandle, device_index: int,
                        exc: Exception, unfinished: list[WorkItem],
                        queue: Optional[Store] = None) -> None:
        """Write a device off and drain its work back for reassignment."""
        kind = self._kind_of(exc)
        if isinstance(exc, DeviceTimeout) and not graph.device.dead:
            # Deadline expired with no device-side failure on record:
            # the firmware is presumed hung; kill it from the host.
            graph.fail_device("hang", str(exc))
        device = graph.device
        self._dead.add(device_index)
        self.health.mark_dead(device.device_id, reason=str(exc))
        requeued = 0
        for item in unfinished:
            attempts = self._attempts.get(item.index, 0) + 1
            self._attempts[item.index] = attempts
            if attempts > self.max_retries:
                self.abandoned.append(item)
            elif queue is not None:
                queue.put_front(item)
                requeued += 1
            else:
                self._requeue.append(item)
                requeued += 1
        # Prefer the device's own record of what killed it and when —
        # e.g. a timeout detecting a death reports as the death.
        self.failures.append(FailureEvent(
            device=device.device_id,
            worker=f"vpu{device_index}",
            time=(device.failure_time if device.failure_time is not None
                  else self.env.now),
            kind=device.failure_kind or kind,
            detail=str(exc),
            requeued=requeued))
        obs = self.env.obs
        if obs is not None:
            obs.metrics.counter("scheduler.device_failures").inc()
            if requeued:
                obs.metrics.counter("scheduler.items_requeued").inc(
                    requeued)
            obs.tracer.instant("scheduler_failover", track="scheduler",
                               device=device.device_id,
                               kind=device.failure_kind or kind,
                               requeued=requeued)

    def _abandon(self, items: list[WorkItem]) -> None:
        self.abandoned.extend(items)
        obs = self.env.obs
        if obs is not None and items:
            obs.metrics.counter("scheduler.items_abandoned").inc(
                len(items))

    @staticmethod
    def _kind_of(exc: Exception) -> str:
        if isinstance(exc, ThermalShutdown):
            return "thermal"
        if isinstance(exc, DeviceTimeout):
            return "hang"
        if isinstance(exc, DeviceBusy):
            return "busy"
        return "death"

    def _record(self, item: WorkItem, result: Optional[np.ndarray],
                device: str, t_submit: float) -> None:
        predicted: Optional[int] = None
        confidence: Optional[float] = None
        if result is not None and item.tensor is not None:
            flat = np.asarray(result, dtype=np.float32).ravel()
            predicted = int(flat.argmax())
            confidence = float(flat[predicted])
        self.records.append(InferenceRecord(
            index=item.index,
            image_id=item.image_id,
            label=item.label,
            predicted=predicted,
            confidence=confidence,
            device=device,
            t_submit=t_submit,
            t_complete=self.env.now,
        ))
        obs = self.env.obs
        if obs is not None and item.trace is not None:
            # Backdate the submit hop: _record runs at completion time
            # but the transfer started at t_submit.
            obs.reqtrace.hop(item.trace, "device_submit", track=device,
                             t=obs.tracer.timestamp(t_submit))
            obs.reqtrace.hop(item.trace, "device_done", track=device)
