"""Target devices (the ``TargetDevice`` side of the paper's Fig. 3).

Each target knows how to prepare itself inside a simulation
environment and how to process a batch of work items, returning
:class:`~repro.ncsw.results.InferenceRecord` objects.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.baselines.cpu import CPUDevice
from repro.baselines.device import InferenceDevice
from repro.baselines.gpu import GPUDevice
from repro.errors import (DeviceLost, FrameworkError, NCAPIError,
                          USBError)
from repro.ncs.ncapi import NCAPI, GraphHandle
from repro.ncs.usb import paper_testbed_topology
from repro.ncsw.faults import FailureEvent, FaultPlan, FaultStats
from repro.ncsw.results import InferenceRecord
from repro.ncsw.scheduler import MultiVPUScheduler
from repro.ncsw.sources import WorkItem
from repro.nn.graph import Network
from repro.sim.core import Environment, Event
from repro.vpu.compiler.compile import CompiledGraph, compile_graph
from repro.vpu.myriad2 import Myriad2Config


def record_from_probs(item: WorkItem, flat: Optional[np.ndarray],
                      device: str, t_submit: float,
                      t_complete: float) -> InferenceRecord:
    """Build one :class:`InferenceRecord` from a probability vector.

    ``flat`` is the item's flattened class distribution (None for
    timing-only runs, leaving the prediction fields unset).  Shared by
    the host targets and the split-execution target so every backend
    reports predictions identically.
    """
    predicted = confidence = None
    if flat is not None:
        predicted = int(flat.argmax())
        confidence = float(flat[predicted])
    return InferenceRecord(
        index=item.index, image_id=item.image_id, label=item.label,
        predicted=predicted, confidence=confidence, device=device,
        t_submit=t_submit, t_complete=t_complete)


class TargetDevice:
    """Abstract target: prepare once, then process batches."""

    name = "target"
    tdp_watts = 0.0
    #: The environment :meth:`prepare` bound the target to.
    _env: Optional[Environment] = None

    def prepare(self, env: Environment) -> Event:
        """Bring the target up (boot, graph allocation...)."""
        raise NotImplementedError

    def execute(self, items: list[WorkItem]
                ) -> Generator[Event, None, list[InferenceRecord]]:
        """Process a batch inline (a generator body the waiting caller
        runs with ``yield from``); returns the list of records."""
        raise NotImplementedError

    @property
    def alive(self) -> bool:
        """False once the target can no longer serve work (all of its
        physical devices are dead).  Host targets never die."""
        return True

    @property
    def preferred_batch_size(self) -> int:
        """Batch size this target's hardware path prefers.

        The serving batcher sizes its windows to this hint: the VPU
        rig peaks at one image per stick (the multi-VPU scheduler
        deals a batch one item per device), while the Caffe hosts
        amortise per-batch overheads and want larger batches.
        """
        return 8

    def fault_stats(self) -> FaultStats:
        """Degraded-mode accounting for the last run (empty unless the
        target supports fault injection and something failed)."""
        return FaultStats()


class _HostTarget(TargetDevice):
    """Shared implementation of the CPU/GPU Caffe-batch targets."""

    _device_cls: type[InferenceDevice]

    def __init__(self, network: Network, functional: bool = True,
                 jitter: float = 0.0) -> None:
        self.network = network
        self.functional = functional
        self.jitter = jitter
        self._device: Optional[InferenceDevice] = None

    def prepare(self, env: Environment) -> Event:
        self._env = env
        self._device = self._device_cls(env, self.network,
                                        functional=self.functional,
                                        jitter=self.jitter)
        # Host frameworks have a warm-up (weight loading, MKL/cuDNN
        # autotune) that the paper excludes; model it as a fixed cost
        # during preparation.
        return env.timeout(0.5)

    @property
    def tdp_watts(self) -> float:  # type: ignore[override]
        return self._device_cls.tdp_watts

    @property
    def preferred_batch_size(self) -> int:
        """Caffe hosts amortise MKL/cuDNN overheads: want big batches
        (Fig. 6b shows the gain flattening towards batch 16)."""
        return 16

    def execute(self, items: list[WorkItem]
                ) -> Generator[Event, None, list[InferenceRecord]]:
        assert self._device is not None and self._env is not None
        t0 = self._env.now
        tensors = [i.tensor for i in items]
        images = (tensors if all(t is not None for t in tensors)
                  else None)
        obs = self._env.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin("infer_batch", track=self.name,
                                    size=len(items))
        probs = yield from self._device._run(images, len(items))
        if obs is not None:
            obs.tracer.end(span)
            for item in items:
                if item.trace is not None:
                    obs.reqtrace.hop(item.trace, "device_submit",
                                     track=self.name,
                                     t=obs.tracer.timestamp(t0))
                    obs.reqtrace.hop(item.trace, "device_done",
                                     track=self.name)
        records = []
        for pos, item in enumerate(items):
            flat = probs[pos].ravel() if probs is not None else None
            records.append(record_from_probs(
                item, flat, self.name, t0, self._env.now))
        return records


class IntelCPU(_HostTarget):
    """Caffe-MKL batch processing on the dual Xeon host."""

    name = "cpu"
    _device_cls = CPUDevice


class NvGPU(_HostTarget):
    """Caffe-cuDNN batch processing on the Quadro K4000."""

    name = "gpu"
    _device_cls = GPUDevice


class IntelVPU(TargetDevice):
    """The parallel multi-VPU target (paper §III, Fig. 4).

    Parameters
    ----------
    network:
        Network to compile for the sticks (ignored if ``graph`` given).
    num_devices:
        NCS sticks to drive (1-8, the paper's testbed).
    functional:
        Whether sticks execute the network for real.
    overlap:
        Double-buffered load/get (the paper's design) vs serialised
        (ablation).
    graph:
        A pre-compiled graph to reuse (saves recompilation in sweeps).
    fault_plan:
        A :class:`~repro.ncsw.faults.FaultPlan` of seeded device
        failures to arm against the sticks (arms the lost-device
        hooks, so a stick dying mid-call fails over at once).
    call_timeout:
        Per-call NCAPI deadline in seconds (arms the lost-device
        hooks; the only way to detect a hung firmware).

    Every run fails over: a stick that dies during bring-up or idle
    between batches is left out of the rotation, and one that dies
    mid-call (once ``fault_plan`` or ``call_timeout`` armed its hooks)
    has its work served by the survivors.
    """

    name = "vpu"

    def __init__(self, network: Optional[Network] = None, *,
                 num_devices: int = 8,
                 functional: bool = True,
                 overlap: bool = True,
                 graph: Optional[CompiledGraph] = None,
                 chip_config: Optional[Myriad2Config] = None,
                 jitter: float = 0.0,
                 dynamic: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 call_timeout: Optional[float] = None,
                 max_retries: int = 3,
                 retry_backoff_s: float = 1e-3) -> None:
        if network is None and graph is None:
            raise FrameworkError("IntelVPU needs a network or a graph")
        if not 1 <= num_devices <= 8:
            raise FrameworkError(
                f"the testbed drives 1-8 sticks, got {num_devices}")
        self.num_devices = num_devices
        self.functional = functional
        self.overlap = overlap
        self.chip_config = chip_config
        self.jitter = jitter
        self.dynamic = dynamic
        self.fault_plan = fault_plan
        self.call_timeout = call_timeout
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self._graph = graph if graph is not None else compile_graph(
            network)  # type: ignore[arg-type]
        self._handles: list[GraphHandle] = []
        self.api: Optional[NCAPI] = None
        self._fault_stats = FaultStats()

    @property
    def tdp_watts(self) -> float:  # type: ignore[override]
        """Whole-rig TDP: one NCS stick TDP per device (paper Fig. 8a)."""
        from repro.power.tdp import DEFAULT_TDP
        return DEFAULT_TDP.watts("ncs", self.num_devices)

    @property
    def alive(self) -> bool:
        """True while at least one stick can still take work."""
        if self._env is None:
            return True  # not prepared yet: no evidence of death
        return any(h.device_alive for h in self._handles)

    @property
    def preferred_batch_size(self) -> int:
        """One image per stick: the scheduler deals a batch across the
        devices, so a larger batch only queues behind itself."""
        return self.num_devices

    def fault_stats(self) -> FaultStats:
        """Failures/reassignments/abandonments over the whole run."""
        # A stick that died while idle (between batches) never aborted
        # a call, so no scheduler saw it fail; reconcile against the
        # device state so run-level accounting lists every death.
        reported = {f.device for f in self._fault_stats.events}
        for idx, handle in enumerate(self._handles):
            device = handle.device
            if device.dead and device.device_id not in reported:
                self._fault_stats.events.append(FailureEvent(
                    device=device.device_id,
                    worker=f"vpu{idx}",
                    time=(device.failure_time
                          if device.failure_time is not None
                          else (self._env.now if self._env else 0.0)),
                    kind=device.failure_kind or "death",
                    detail="died idle (no call in flight)",
                    requeued=0))
        self._fault_stats.events.sort(key=lambda f: (f.time, f.device))
        return self._fault_stats

    def prepare(self, env: Environment) -> Event:
        self._env = env
        self._fault_stats = FaultStats()  # fresh run, fresh accounting
        topo = paper_testbed_topology(env, num_devices=self.num_devices)
        self.api = NCAPI(env, topo, functional=self.functional,
                         chip_config=self.chip_config)
        for device in self.api.devices:
            device.latency_jitter = self.jitter
        if self.fault_plan is not None:
            self.fault_plan.arm(env, self.api.devices)
        elif self.call_timeout is not None:
            # No scheduled faults, but a deadline still needs the lost-
            # device hooks armed so host-injected deaths abort calls.
            for device in self.api.devices:
                device.enable_fault_hooks()
        return env.process(self._prepare())

    def _prepare(self) -> Generator[Event, None, None]:
        # Boot every stick and allocate the graph, concurrently —
        # exactly what NCSw does at start-up: all opens, then all
        # allocations.  Each phase is wrapped per stick so a fault
        # firing mid-boot costs that stick alone, not the whole
        # bring-up.
        env = self._env
        assert env is not None and self.api is not None

        def open_one(index: int):
            try:
                return (yield self.api.open_device(index))
            except (DeviceLost, NCAPIError, USBError):
                return None  # died during boot: not in rotation

        opens = [env.process(open_one(i))
                 for i in range(self.num_devices)]
        opened = yield env.all_of(opens)

        def alloc_one(handle):
            try:
                return (yield handle.allocate_compiled(self._graph))
            except (DeviceLost, NCAPIError, USBError):
                return None  # died during allocation

        allocs = [env.process(alloc_one(opened[p]))
                  for p in opens if opened[p] is not None]
        results = yield env.all_of(allocs)
        self._handles = [results[p] for p in allocs
                         if results[p] is not None]

    def execute(self, items: list[WorkItem]
                ) -> Generator[Event, None, list[InferenceRecord]]:
        assert self._env is not None
        if not self._handles:
            # Every stick died during bring-up: nothing can run.
            self._fault_stats.abandoned += len(items)
            return []
        scheduler = MultiVPUScheduler(
            self._env, self._handles,
            overlap=self.overlap,
            dynamic=self.dynamic,
            call_timeout=self.call_timeout,
            max_retries=self.max_retries,
            retry_backoff_s=self.retry_backoff_s)
        yield from scheduler._run(items)
        # One scheduler per batch; fold its accounting into the
        # run-level stats the framework reads back.
        self._fault_stats.merge(scheduler.fault_stats())
        return scheduler.records
