"""The NCS stick: firmware, FIFOs and the RISC runtime scheduler.

One :class:`NCSDevice` owns a :class:`~repro.vpu.myriad2.Myriad2` chip
and mediates every host interaction through the USB topology:

* ``boot`` — firmware transfer + RTOS bring-up;
* ``allocate_graph`` — graph-file transfer + DDR residency;
* ``submit`` — input-tensor transfer into the input FIFO (the
  device-side half of ``mvncLoadTensor``);
* the scheduler process — one of the two RISC cores, which pops the
  input FIFO, runs the SHAVE array and pushes results to the output
  FIFO (paper Fig. 2's "runtime scheduler");
* ``collect`` — result transfer back to the host (the device-side
  half of ``mvncGetResult``).

Functional execution: when ``functional=True`` the device really runs
the compiled network in FP16 on the submitted tensor; when False it
produces zeros — used by the timing benchmarks, where paper-scale
NumPy inference would dominate wall-clock for no measurement benefit.
Functional results are computed per *wave*: every stick of one bus
enumeration shares a :class:`ForwardWave` per graph, a stick starting
an inference joins it, and the first result collected runs one batched
FP16 forward over every inference then pending.  The forward is batch
invariant, so each row is the bits a per-image forward gives, and no
simulation event depends on when the numbers are computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.errors import (
    DeviceBusy,
    DeviceClosed,
    DeviceLost,
    NCAPIError,
    ThermalShutdown,
    USBError,
)
from repro.numerics.quant import PrecisionPolicy
from repro.sim.core import Environment, Event, Interrupt
from repro.sim.monitor import TraceRecorder
from repro.sim.resources import Store
from repro.ncs.firmware import DEFAULT_FIRMWARE, FirmwareImage
from repro.ncs.thermal import ThermalModel
from repro.ncs.usb import USBTopology
from repro.vpu.compiler.compile import CompiledGraph
from repro.vpu.myriad2 import Myriad2, Myriad2Config

#: Depth of the inference FIFOs (NCSDK v1 allows two tensors in
#: flight per graph, enabling the load/get overlap of Listing 1).
FIFO_DEPTH = 2


@dataclass
class _Inference:
    """One queued inference travelling through the device."""

    seq: int
    tensor: Optional[np.ndarray]
    user: Any
    result: Optional[np.ndarray] = None
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: The wave computing this inference's functional result (None on
    #: timing-only devices and tensor-less submissions).
    wave: Optional["ForwardWave"] = None


class ForwardWave:
    """The functional inferences of one graph awaiting their numbers.

    Shared by every stick one bus enumeration (one NCAPI) created, so
    the sticks of a multi-VPU rig that run side by side get their FP16
    results from one batched forward instead of one forward each.
    """

    def __init__(self, graph: CompiledGraph) -> None:
        self.graph = graph
        self._pending: list[tuple["NCSDevice", _Inference]] = []

    def __len__(self) -> int:
        return len(self._pending)

    def join(self, device: "NCSDevice", item: _Inference) -> None:
        """Queue *item*, which *device* has started running."""
        item.wave = self
        self._pending.append((device, item))

    def leave(self, device: "NCSDevice") -> None:
        """Drop every pending entry of *device* (it died or was reset)."""
        self._pending = [entry for entry in self._pending
                         if entry[0] is not device]

    def result(self, device: "NCSDevice",
               item: _Inference) -> np.ndarray:
        """*item*'s FP16 output, running the wave's forward if needed.

        An item whose entry was dropped (its stick hung after finishing
        it, say) rejoins, so a result is always computed from its own
        tensor.
        """
        if item.result is None:
            if not any(queued is item for _, queued in self._pending):
                self._pending.append((device, item))
            items = [queued for _, queued in self._pending]
            self._pending = []
            x = np.stack([_image(queued.tensor) for queued in items])
            probs = self.graph.network.forward(x, PrecisionPolicy.fp16())
            for queued, row in zip(items, probs):
                queued.result = row.astype(np.float16)
        return item.result


def _image(tensor: np.ndarray) -> np.ndarray:
    """The one CHW image of a submitted tensor, as FP32."""
    x = np.asarray(tensor, dtype=np.float32)
    return x.reshape((-1,) + x.shape[-3:])[0]


class NCSDevice:
    """One Neural Compute Stick on the simulated bus."""

    def __init__(self, env: Environment, device_id: str,
                 topology: USBTopology,
                 firmware: FirmwareImage = DEFAULT_FIRMWARE,
                 chip_config: Myriad2Config | None = None,
                 functional: bool = True,
                 trace: Optional[TraceRecorder] = None,
                 thermal: Optional["ThermalModel"] = None) -> None:
        if device_id not in topology.devices:
            raise NCAPIError(
                f"device {device_id!r} is not attached to the topology")
        self.env = env
        self.device_id = device_id
        self.topology = topology
        self.firmware = firmware
        self.functional = functional
        self.trace = trace
        self.chip = Myriad2(env, chip_config, trace=trace,
                            name=f"{device_id}/chip")
        self.booted = False
        self.closed = False
        #: Fault state: a dead device rejects every operation with
        #: :class:`DeviceLost` (or :class:`ThermalShutdown`).
        self.dead = False
        self.failure_kind: Optional[str] = None
        self.failure_time: Optional[float] = None
        #: Event that fires when the device dies; created lazily by
        #: :meth:`enable_fault_hooks` so the default (no fault
        #: injection) path stays byte-identical.
        self._lost: Optional[Event] = None
        #: Firmware-busy window end (``submit`` raises DeviceBusy
        #: before it) and a counter of rejected submissions.
        self._busy_until = 0.0
        self.busy_rejections = 0
        self._hung = False
        self._graph: Optional[CompiledGraph] = None
        self._graph_handle: Optional[int] = None
        self._in_fifo = Store(env, capacity=FIFO_DEPTH)
        self._out_fifo = Store(env, capacity=FIFO_DEPTH)
        self._seq = itertools.count()
        self._scheduler: Optional[Event] = None
        #: Functional waves by graph id; :func:`~repro.ncs.enumeration.
        #: enumerate_devices` shares one mapping across a bus's sticks.
        self.waves: dict[int, ForwardWave] = {}
        self.inference_times: list[float] = []
        #: Optional thermal model; when set, sustained load heats the
        #: stick and throttles the media clock (see ncs.thermal).
        self.thermal = thermal
        #: Active power draw assumed while an inference runs (the NCS
        #: stick's 2.5 W peak figure).
        self.active_power_w = 2.5
        self.idle_power_w = 0.7
        #: Relative std-dev of per-inference latency noise (testbed
        #: noise model for error bars; 0 keeps runs deterministic).
        self.latency_jitter = 0.0
        import hashlib as _hashlib
        digest = _hashlib.sha256(
            f"ncs-jitter:{device_id}".encode()).digest()
        self._jitter_rng = np.random.default_rng(
            int.from_bytes(digest[:8], "little"))

    # -- lifecycle ------------------------------------------------------
    def boot(self) -> Generator[Event, None, None]:
        """Load firmware and start the RTOS (a generator body)."""
        self._check_open(require_boot=False)
        if self.booted:
            return
        yield from self.topology.transfer(self.device_id,
                                          self.firmware.nbytes)
        yield self.env.timeout(self.firmware.boot_seconds)
        self.booted = True
        self.chip.islands.power_on("risc1")
        self.chip.islands.power_on("usb")
        self._scheduler = self.env.process(self._scheduler_loop())
        self._emit("booted", version=self.firmware.version)
        obs = self.env.obs
        if obs is not None:
            obs.tracer.instant("booted", track=self.device_id,
                               version=self.firmware.version)
            obs.power_monitor(self.device_id).record(self.idle_power_w)

    def close(self) -> None:
        """Tear the device down; subsequent operations fail."""
        self.closed = True
        self.booted = False
        self._leave_waves()

    def reset(self) -> Event:
        """``mvncResetDevice`` analogue (process event).

        Drops every in-flight inference, deallocates the resident
        graph, kills the runtime scheduler and re-boots the firmware.
        The device comes back ready for a fresh ``allocate_graph``.
        """
        return self.env.process(self._reset())

    def _reset(self) -> Generator[Event, None, None]:
        self._check_open(require_boot=False)
        if self._scheduler is not None and self._scheduler.is_alive:
            self._scheduler.interrupt("reset")
        self._scheduler = None
        self._leave_waves()
        dropped = len(self._in_fifo.items) + len(self._out_fifo.items)
        self._in_fifo = Store(self.env, capacity=FIFO_DEPTH)
        self._out_fifo = Store(self.env, capacity=FIFO_DEPTH)
        if self._graph is not None:
            assert self._graph_handle is not None
            self.chip.deallocate_graph(self._graph_handle)
            self._graph = None
            self._graph_handle = None
        self.booted = False
        self._emit("reset", dropped_inferences=dropped)
        yield from self.boot()

    # -- fault injection & death ---------------------------------------
    def enable_fault_hooks(self) -> None:
        """Arm the lost-device race on the inference path.

        Until this is called (by a :class:`~repro.ncsw.faults.
        FaultPlan` or a VPU target given a call deadline) ``submit`` and
        ``collect`` run their transfers inline and wait on their FIFOs
        directly — no extra simulation events, so un-faulted runs are
        byte-identical.
        """
        if self._lost is None:
            self._lost = Event(self.env)

    def mark_dead(self, kind: str, detail: str = "") -> None:
        """Declare the device dead (idempotent).

        Fires the lost event so every in-flight ``submit``/``collect``
        fails with :class:`DeviceLost`, kills the RISC runtime
        scheduler, and records the failure for the health report.
        """
        if self.dead:
            return
        self.dead = True
        self.failure_kind = kind
        self.failure_time = self.env.now
        if self._lost is None:
            self._lost = Event(self.env)
        if not self._lost.triggered:
            self._lost.succeed(kind)
        sched = self._scheduler
        if (sched is not None and sched.is_alive
                and sched is not self.env.active_process):
            sched.interrupt("device-dead")
        self._scheduler = None
        self._leave_waves()
        self._emit("device_failed", kind=kind, detail=detail)
        obs = self.env.obs
        if obs is not None:
            obs.tracer.instant("device_failed", track=self.device_id,
                               kind=kind, detail=detail)
            obs.metrics.counter("ncs.devices_failed").inc()
            obs.power_monitor(self.device_id).record(0.0)

    def inject_death(self, detail: str = "hot-unplug") -> None:
        """Kill the stick outright (hot-unplug / hardware death)."""
        if self.dead:
            return
        try:
            self.topology.detach_device(self.device_id)
        except USBError:
            pass  # already detached
        self.mark_dead("death", detail)

    def inject_hang(self, detail: str = "firmware-hang") -> None:
        """Hang the firmware: the device goes silent but stays on the
        bus.  Tensors still transfer and queue; results never come —
        only a per-call timeout (``get_result(timeout=...)``) can
        detect it."""
        if self.dead or self._hung:
            return
        self._hung = True
        sched = self._scheduler
        if (sched is not None and sched.is_alive
                and sched is not self.env.active_process):
            sched.interrupt("firmware-hang")
        self._scheduler = None
        self._leave_waves()
        self._emit("device_hung", detail=detail)
        obs = self.env.obs
        if obs is not None:
            obs.tracer.instant("device_hung", track=self.device_id,
                               detail=detail)

    def inject_thermal_runaway(self,
                               detail: str = "thermal-runaway") -> None:
        """Push the stick over its thermal cut-off.

        Forces the junction temperature past
        :attr:`~repro.ncs.thermal.ThermalConfig.shutdown_temp_c`; the
        model latches shutdown and the device dies through the same
        path organic over-temperature would take."""
        if self.dead:
            return
        if self.thermal is None:
            self.thermal = ThermalModel()
        cfg = self.thermal.config
        self.thermal.force_temperature(cfg.shutdown_temp_c + 5.0,
                                       at=self.env.now)
        if self.thermal.shut_down:
            self.mark_dead("thermal", detail)

    def inject_busy(self, duration: float) -> None:
        """Reject submissions with :class:`DeviceBusy` for *duration*
        seconds (transient firmware congestion)."""
        if duration < 0:
            raise NCAPIError("busy duration must be >= 0")
        self._busy_until = max(self._busy_until,
                               self.env.now + duration)

    def _dead_error(self) -> DeviceLost:
        cls = (ThermalShutdown if self.failure_kind == "thermal"
               else DeviceLost)
        return cls(f"{self.device_id} is dead "
                   f"({self.failure_kind or 'unknown'})")

    def _await_or_lost(self, event: Event
                       ) -> Generator[Event, None, Any]:
        """Wait on *event*, aborting with DeviceLost if the device
        dies first.  With fault hooks unarmed this is a plain wait."""
        if self._lost is None:
            value = yield event
            return value
        result = yield self.env.any_of([event, self._lost])
        if self._lost.triggered:
            raise self._dead_error()
        return result[event]

    def _run_or_lost(self, body: Generator[Event, None, Any]
                     ) -> Generator[Event, None, Any]:
        """Run the hop *body* inline; with fault hooks armed, as a
        process raced against the device's death instead."""
        if self._lost is None:
            return (yield from body)
        return (yield from self._await_or_lost(self.env.process(body)))

    # -- graph management --------------------------------------------------
    def allocate_graph(self, graph: CompiledGraph
                       ) -> Generator[Event, None, None]:
        """Transfer a compiled graph and make it resident (a generator
        body)."""
        self._check_open()
        if self._graph is not None:
            raise DeviceBusy(
                f"{self.device_id}: a graph is already allocated")
        blob_bytes = (graph.weight_bytes_total
                      + 64 * 1024)  # schedule metadata
        yield from self.topology.transfer(self.device_id, blob_bytes)
        self._graph_handle = self.chip.allocate_graph(graph)
        self._graph = graph
        self._emit("graph_allocated", graph=graph.name,
                   nbytes=blob_bytes)

    @property
    def graph(self) -> Optional[CompiledGraph]:
        """The currently resident compiled graph, if any."""
        return self._graph

    # -- inference path ---------------------------------------------------------
    def submit(self, tensor: Optional[np.ndarray],
               user: Any = None) -> Generator[Event, None, int]:
        """Device half of ``mvncLoadTensor``; returns the tensor's seq.

        A generator body the host call runs inline.  Transfers the
        FP16 tensor over USB and enqueues it; returns when the tensor
        is in the input FIFO (NOT when inference is done).
        Backpressure: if the FIFO holds :data:`FIFO_DEPTH` tensors,
        the transfer waits.
        """
        self._check_open()
        if self.env.now < self._busy_until:
            self.busy_rejections += 1
            raise DeviceBusy(
                f"{self.device_id}: firmware busy until "
                f"{self._busy_until:.6f}s")
        graph = self._require_graph()
        nbytes = graph.input_tensor_bytes
        if tensor is not None:
            expected = (graph.input_shape.c, graph.input_shape.h,
                        graph.input_shape.w)
            if tuple(tensor.shape[-3:]) != expected:
                raise NCAPIError(
                    f"tensor shape {tensor.shape} does not match graph "
                    f"input {expected}")
        item = _Inference(seq=next(self._seq), tensor=tensor, user=user,
                          submitted_at=self.env.now)
        yield from self._run_or_lost(
            self.topology.transfer(self.device_id, nbytes))
        yield from self._await_or_lost(self._in_fifo.put(item))
        self._emit("tensor_loaded", seq=item.seq, nbytes=nbytes)
        return item.seq

    def _scheduler_loop(self) -> Generator[Event, None, None]:
        """The RISC runtime scheduler: FIFO in -> SHAVEs -> FIFO out.

        Terminated by :meth:`reset` via interrupt; in-flight work is
        dropped, like the real firmware discarding its queues.
        """
        try:
            yield from self._scheduler_body()
        except Interrupt:
            return

    def _scheduler_body(self) -> Generator[Event, None, None]:
        while not self.closed:
            item: _Inference = yield self._in_fifo.get()
            graph = self._require_graph()
            item.started_at = self.env.now
            if self.functional and item.tensor is not None:
                self._wave(graph).join(self, item)
            obs = self.env.obs
            span = None
            if obs is not None:
                span = obs.tracer.begin("inference",
                                        track=self.device_id,
                                        seq=item.seq)
                obs.power_monitor(self.device_id).record(
                    self.active_power_w)
            if self.thermal is not None:
                # Idle interval since the last activity, then check
                # whether the firmware is holding the clock down.
                self.thermal.update(self.env.now, self.idle_power_w)
                if self.thermal.shut_down:
                    if obs is not None:
                        obs.tracer.end(span)
                    self.mark_dead("thermal", "over-temperature")
                    return
            yield from self.chip.run_inference(graph)
            if self.thermal is not None:
                scale = self.thermal.frequency_scale()
                if scale < 1.0:
                    # Throttled media clock stretches the execution.
                    extra = (self.env.now - item.started_at) * (
                        1.0 / scale - 1.0)
                    yield self.env.timeout(extra)
                self.thermal.update(self.env.now, self.active_power_w)
                if self.thermal.shut_down:
                    # The stick cooked itself mid-inference: the
                    # result is lost, the firmware goes dark.
                    if obs is not None:
                        obs.tracer.end(span)
                    self.mark_dead("thermal", "over-temperature")
                    return
            if self.latency_jitter > 0:
                factor = max(0.5, 1.0 + self._jitter_rng.normal(
                    0.0, self.latency_jitter))
                if factor > 1.0:
                    elapsed = self.env.now - item.started_at
                    yield self.env.timeout(elapsed * (factor - 1.0))
            if item.wave is None:
                item.result = np.zeros(
                    (graph.output_shape.c, graph.output_shape.h,
                     graph.output_shape.w), dtype=np.float16)
            item.finished_at = self.env.now
            self.inference_times.append(
                item.finished_at - item.started_at)
            if obs is not None:
                obs.tracer.end(span)
                obs.power_monitor(self.device_id).record(
                    self.idle_power_w)
                obs.metrics.histogram("ncs.inference_seconds").observe(
                    item.finished_at - item.started_at)
            yield self._out_fifo.put(item)
            self._emit("inference_complete", seq=item.seq,
                       seconds=item.finished_at - item.started_at)

    def _wave(self, graph: CompiledGraph) -> ForwardWave:
        wave = self.waves.get(id(graph))
        if wave is None or wave.graph is not graph:
            wave = self.waves[id(graph)] = ForwardWave(graph)
        return wave

    def _leave_waves(self) -> None:
        for wave in self.waves.values():
            wave.leave(self)

    def collect(self) -> Generator[Event, None, tuple]:
        """Device half of ``mvncGetResult``: a generator body returning
        ``(result_array, user_object)`` once the oldest finished
        inference's output has crossed the USB link.
        """
        self._check_open()
        graph = self._require_graph()
        item: _Inference = yield from self._await_or_lost(
            self._out_fifo.get())
        yield from self._run_or_lost(
            self.topology.transfer(self.device_id,
                                   graph.output_tensor_bytes))
        self._emit("result_read", seq=item.seq)
        if item.wave is not None:
            return item.wave.result(self, item), item.user
        return item.result, item.user

    # -- helpers -----------------------------------------------------------------
    def _require_graph(self) -> CompiledGraph:
        if self._graph is None:
            raise NCAPIError(
                f"{self.device_id}: no graph allocated")
        return self._graph

    def _check_open(self, require_boot: bool = True) -> None:
        if self.dead:
            raise self._dead_error()
        if self.closed:
            raise DeviceClosed(f"{self.device_id} is closed")
        if require_boot and not self.booted:
            raise NCAPIError(f"{self.device_id} is not booted")

    def _emit(self, action: str, **detail) -> None:
        if self.trace is not None:
            self.trace.emit(self.device_id, action, **detail)
