"""Real-time streaming inference pipeline.

The VPU's original habitat is the "edge" — a camera producing frames
at a fixed rate that must be classified live (paper §II-A).  This
module runs that scenario on the simulator: a frame source ticking at
``fps``, a bounded dispatch queue with a drop-newest policy (a live
pipeline skips frames rather than falling behind), and the multi-VPU
worker pool.  Results report sustained throughput, drop rate and
end-to-end latency percentiles — the numbers an edge deployment is
actually judged on, complementing the paper's batch-throughput view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from repro.errors import DeviceTimeout, FrameworkError
from repro.ncs.ncapi import GraphHandle
from repro.ncsw.faults import FailureEvent
from repro.ncsw.scheduler import FAILOVER_ERRORS
from repro.serve.queue import BLOCK, REJECT_NEWEST, SHED_OLDEST
from repro.serve.queue import POLICIES as ADMISSION_POLICIES
from repro.sim.core import Environment, Event
from repro.sim.resources import Store


@dataclass
class FrameRecord:
    """One frame's journey through the pipeline."""

    frame_id: int
    arrived_at: float
    completed_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        """Arrival-to-completion latency, or None if still in flight."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrived_at


@dataclass
class PipelineResult:
    """Outcome of a streaming run."""

    frames_offered: int
    frames_processed: int
    frames_dropped: int
    wall_seconds: float
    latencies: list[float] = field(default_factory=list)
    #: Frames stranded by device failures: accepted into the queue but
    #: never classified because no worker survived to take them.
    frames_abandoned: int = 0
    #: Device failures observed during the run.
    failures: list[FailureEvent] = field(default_factory=list)
    #: Frames drained off a failed device and retried on a survivor.
    frames_reassigned: int = 0

    def __post_init__(self) -> None:
        # Every offered frame must be accounted for exactly once —
        # classified, dropped at the queue, or abandoned to a failure.
        accounted = (self.frames_processed + self.frames_dropped
                     + self.frames_abandoned)
        if accounted != self.frames_offered:
            raise FrameworkError(
                f"frame accounting broken: {self.frames_processed} "
                f"processed + {self.frames_dropped} dropped + "
                f"{self.frames_abandoned} abandoned != "
                f"{self.frames_offered} offered")
        if len(self.latencies) != self.frames_processed:
            raise FrameworkError(
                f"{self.frames_processed} frames processed but "
                f"{len(self.latencies)} latencies recorded")

    @property
    def sustained_fps(self) -> float:
        """Frames actually processed per second of wall time."""
        if self.wall_seconds <= 0:
            raise FrameworkError("run has no elapsed time")
        return self.frames_processed / self.wall_seconds

    @property
    def drop_rate(self) -> float:
        """Fraction of offered frames skipped by the live queue."""
        if self.frames_offered == 0:
            return 0.0
        return self.frames_dropped / self.frames_offered

    @property
    def degraded(self) -> bool:
        """True when any device failed or any frame was abandoned."""
        return bool(self.failures) or self.frames_abandoned > 0

    def latency_percentile(self, q: float) -> float:
        """End-to-end latency percentile (q in [0, 100]).

        Raises :class:`ValueError` when no frame completed — latency
        percentiles are undefined for such a run.
        """
        if not self.latencies:
            raise ValueError(
                "no completed frames: latency percentiles are "
                "undefined for this run")
        return float(np.percentile(self.latencies, q))

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end latency over the completed frames."""
        if not self.latencies:
            raise ValueError(
                "no completed frames: mean latency is undefined for "
                "this run")
        return float(np.mean(self.latencies))

    def summary(self) -> str:
        """One-line human-readable summary of the run.

        Degrades gracefully when every frame was dropped: no latency
        percentiles are printed instead of raising.
        """
        head = (f"{self.frames_processed}/{self.frames_offered} frames "
                f"({self.drop_rate:.1%} dropped)")
        if not self.latencies:
            return head + ", no completed frames"
        return (head + ", "
                f"{self.sustained_fps:.1f} fps sustained, "
                f"latency p50 {self.latency_percentile(50) * 1000:.1f} "
                f"ms / p95 {self.latency_percentile(95) * 1000:.1f} "
                f"ms / p99 {self.latency_percentile(99) * 1000:.1f} "
                f"ms, mean {self.mean_latency * 1000:.1f} ms")


class StreamingPipeline:
    """Camera -> bounded queue -> multi-stick worker pool.

    ``admission`` is what a full queue does to the next frame:
    ``reject-newest`` skips it (a live pipeline skips frames rather
    than falling behind; the default), ``shed-oldest`` evicts the
    oldest queued frame to admit it (stale frames are worthless to a
    live classifier) and ``block`` stalls the camera until a worker
    frees a slot (nothing is lost, but the source falls behind its own
    clock).
    """

    def __init__(self, env: Environment, graphs: list[GraphHandle],
                 fps: float, queue_depth: int = 4,
                 call_timeout: Optional[float] = None,
                 admission: str = REJECT_NEWEST) -> None:
        if not graphs:
            raise FrameworkError("pipeline needs at least one device")
        if fps <= 0:
            raise FrameworkError(f"fps must be positive, got {fps}")
        if queue_depth < 1:
            raise FrameworkError("queue_depth must be >= 1")
        if call_timeout is not None and call_timeout <= 0:
            raise FrameworkError(
                f"call_timeout must be positive, got {call_timeout}")
        if admission not in ADMISSION_POLICIES:
            raise FrameworkError(
                f"unknown admission policy {admission!r}; one of "
                f"{ADMISSION_POLICIES}")
        self.env = env
        self.graphs = graphs
        self.fps = fps
        self.queue_depth = queue_depth
        self.call_timeout = call_timeout
        self.admission = admission
        self._queue = Store(env, capacity=float("inf"))
        self._queued = 0
        self._space: Optional[Event] = None
        self._alive_workers = len(graphs)
        self.records: list[FrameRecord] = []
        self.dropped = 0
        self.failures: list[FailureEvent] = []
        self.reassigned = 0

    def run(self, num_frames: int) -> Event:
        """Stream *num_frames*; event value is a PipelineResult."""
        if num_frames < 1:
            raise FrameworkError("num_frames must be >= 1")
        return self.env.process(self._run(num_frames))

    def _run(self, num_frames: int
             ) -> Generator[Event, None, PipelineResult]:
        t0 = self.env.now
        producer = self.env.process(self._producer(num_frames))
        workers = [self.env.process(self._worker(g, idx))
                   for idx, g in enumerate(self.graphs)]
        yield producer
        # Poison-pill each worker after the source dries up.
        for _ in workers:
            yield self._queue.put(None)
        yield self.env.all_of(workers)
        # Frames still queued once every worker has exited (all sticks
        # dead) were accepted but never classified: abandoned.
        abandoned = sum(1 for f in self._queue.items if f is not None)
        self._queue.items.clear()
        latencies = [r.latency for r in self.records
                     if r.latency is not None]
        return PipelineResult(
            frames_offered=num_frames,
            frames_processed=len(latencies),
            frames_dropped=self.dropped,
            wall_seconds=self.env.now - t0,
            latencies=latencies,
            frames_abandoned=abandoned,
            failures=list(self.failures),
            frames_reassigned=self.reassigned,
        )

    def _producer(self, num_frames: int
                  ) -> Generator[Event, None, None]:
        interval = 1.0 / self.fps
        obs = self.env.obs
        for frame_id in range(num_frames):
            if obs is not None:
                obs.metrics.counter("pipeline.frames_offered").inc()
            if self.admission == BLOCK:
                # Backpressure: stall the camera until a worker frees
                # a slot.  The frame is stamped when it is admitted,
                # after the stall, so a stalled camera shows up as a
                # lower sustained rate, not as queueing latency.
                # If every device has died the wait would never end;
                # admit anyway and let the drain count them abandoned.
                while (self._queued >= self.queue_depth
                       and self._alive_workers > 0):
                    self._space = self.env.event()
                    yield self._space
                frame = FrameRecord(frame_id, arrived_at=self.env.now)
            elif self._queued >= self.queue_depth:
                if self.admission == SHED_OLDEST:
                    if self._shed_oldest() and obs is not None:
                        obs.metrics.counter(
                            "pipeline.frames_dropped").inc()
                    frame = FrameRecord(frame_id,
                                        arrived_at=self.env.now)
                else:
                    # Live pipeline: skip the frame rather than stall
                    # the camera (reject-newest policy).
                    self.dropped += 1
                    if obs is not None:
                        obs.metrics.counter(
                            "pipeline.frames_dropped").inc()
                    frame = None
            else:
                frame = FrameRecord(frame_id, arrived_at=self.env.now)
            if frame is not None:
                self._queued += 1
                yield self._queue.put(frame)
                if obs is not None:
                    obs.metrics.gauge("pipeline.queue_depth").set(
                        self._queued)
            yield self.env.timeout(interval)

    def _shed_oldest(self) -> bool:
        """Evict the oldest still-queued frame; True when one was."""
        for i, item in enumerate(self._queue.items):
            if item is not None:
                del self._queue.items[i]
                self._queued -= 1
                self.dropped += 1
                return True
        # Queue counted as full but every frame is already in a
        # worker's hands (get dispatched, decrement still pending):
        # nothing to shed.
        return False

    def _notify_space(self) -> None:
        """Wake a producer blocked on a full queue, if any."""
        if self._space is not None and not self._space.triggered:
            self._space.succeed()
            self._space = None

    def _worker(self, graph: GraphHandle, device_index: int
                ) -> Generator[Event, None, None]:
        # The stick dying mid-frame kills only this worker: the
        # in-flight frame jumps back to the head of the queue for a
        # survivor, and the failure is recorded.
        obs = self.env.obs
        while True:
            frame = yield self._queue.get()
            if frame is None:
                self._alive_workers -= 1
                return
            self._queued -= 1
            self._notify_space()
            if obs is not None:
                obs.metrics.gauge("pipeline.queue_depth").set(
                    self._queued)
            try:
                yield from graph.load_tensor_inline(
                    None, user=frame, timeout=self.call_timeout)
                _, got = yield from graph.get_result_inline(
                    timeout=self.call_timeout)
            except FAILOVER_ERRORS as exc:
                if isinstance(exc, DeviceTimeout) \
                        and not graph.device.dead:
                    graph.fail_device("hang", str(exc))
                device = graph.device
                self._queued += 1
                self._queue.put_front(frame)
                self.reassigned += 1
                self.failures.append(FailureEvent(
                    device=device.device_id,
                    worker=f"vpu{device_index}",
                    time=(device.failure_time
                          if device.failure_time is not None
                          else self.env.now),
                    kind=device.failure_kind or "death",
                    detail=str(exc), requeued=1))
                if obs is not None:
                    obs.metrics.counter(
                        "pipeline.device_failures").inc()
                self._alive_workers -= 1
                if self._alive_workers == 0:
                    # Last device gone: release a blocked producer so
                    # the run can drain and account the leftovers.
                    self._notify_space()
                return
            got.completed_at = self.env.now
            self.records.append(got)
            if obs is not None:
                obs.metrics.histogram(
                    "pipeline.latency_seconds").observe(
                        got.completed_at - got.arrived_at)
