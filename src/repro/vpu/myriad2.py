"""The Myriad 2 chip model.

Assembles the component models — SHAVE array, CMX, DDR, DMA, SIPP,
power islands — and exposes the operation the NCS device model needs:
run one compiled-graph inference as a DES generator body, with per-layer
timing, SHAVE utilisation accounting and power-island gating.

Nothing observes the layer boundaries inside an inference, so an
inference is simulated as a single completion event.  The per-layer
work is folded once per (chip, graph) into a :class:`_GraphPlan`: the
layer seconds, the per-SHAVE and DMA totals and the islands to gate.
The completion lands at ``now + s1 + ... + sn`` summed left to right,
the exact float that stepping the layers one timeout at a time reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import AllocationError, SimulationError
from repro.sim.core import Environment, Event
from repro.sim.monitor import TraceRecorder
from repro.sim.resources import Resource
from repro.units import MHZ
from repro.vpu.clock import Clock
from repro.vpu.cmx import CMXMemory, CMX_SLICE_BYTES, CMX_SLICES
from repro.vpu.compiler.compile import CompiledGraph
from repro.vpu.ddr import DDRChannel
from repro.vpu.dma import DMAEngine
from repro.vpu.power_islands import PowerIslands
from repro.vpu.shave import ShaveConfig, ShaveProcessor
from repro.vpu.sipp import SIPPPipeline


@dataclass(frozen=True)
class Myriad2Config:
    """Chip-level configuration (MA2450 defaults)."""

    num_shaves: int = 12
    freq_hz: float = 600 * MHZ
    cmx_slices: int = CMX_SLICES
    cmx_slice_bytes: int = int(CMX_SLICE_BYTES)
    shave: ShaveConfig = ShaveConfig()

    def __post_init__(self) -> None:
        if not 1 <= self.num_shaves <= 12:
            raise SimulationError(
                f"Myriad 2 has 1-12 SHAVEs, got {self.num_shaves}")


@dataclass(frozen=True)
class _GraphPlan:
    """One inference of *graph* on one chip, folded into totals."""

    #: The graph the plan was built for; the memo compares identity.
    graph: CompiledGraph
    #: Per-layer seconds in layer order (NCAPI ``TIME_TAKEN``).
    per_layer: dict[str, float]
    #: Layer seconds in execution order, summed at run time.
    seconds: tuple[float, ...]
    #: ``(busy_cycles, kernels_run)`` credited to SHAVE i.
    shave_totals: tuple[tuple[int, int], ...]
    dma_transfers: int
    dma_bytes: int
    #: Islands ungated for the inference's duration.
    islands: tuple[str, ...]


class Myriad2:
    """One Myriad 2 VPU bound to a simulation environment."""

    def __init__(self, env: Environment,
                 config: Myriad2Config | None = None,
                 trace: Optional[TraceRecorder] = None,
                 name: str = "myriad2") -> None:
        self.env = env
        self.config = config or Myriad2Config()
        self.name = name
        self.trace = trace
        self.clock = Clock(self.config.freq_hz)
        self.shaves = [ShaveProcessor(i, self.config.shave)
                       for i in range(self.config.num_shaves)]
        self.cmx = CMXMemory(self.config.cmx_slices,
                             self.config.cmx_slice_bytes)
        self.ddr = DDRChannel()
        self.dma = DMAEngine(self.ddr)
        self.dma.bind(env)
        self.sipp = SIPPPipeline(self.config.freq_hz)
        self.sipp.bind(env)
        self.islands = PowerIslands(env)
        self.islands.power_on("risc0")  # runtime scheduler always up
        # The SHAVE array runs one graph at a time (the NCS runtime
        # scheduler serialises executions).
        self._shave_array = Resource(env, capacity=1)
        self.inferences_completed = 0
        self._graph_handles: dict[int, int] = {}
        self._next_handle = 1
        # One slot: a stick holds one graph at a time.
        self._plan: Optional[_GraphPlan] = None

    # -- graph lifecycle ----------------------------------------------------
    def allocate_graph(self, graph: CompiledGraph) -> int:
        """Reserve DDR for the graph's weights; returns a handle."""
        if graph.num_shaves > self.config.num_shaves:
            raise AllocationError(
                f"graph compiled for {graph.num_shaves} SHAVEs but chip "
                f"has {self.config.num_shaves}")
        if abs(graph.freq_hz - self.config.freq_hz) > 1.0:
            # Dispatch/memory cycle counts were baked at compile time
            # for a specific clock; running them on a different clock
            # silently mis-times seconds-based costs.
            raise AllocationError(
                f"graph compiled for {graph.freq_hz / 1e6:.0f} MHz but "
                f"chip runs at {self.config.freq_hz / 1e6:.0f} MHz")
        nbytes = graph.weight_bytes_total + graph.input_tensor_bytes * 2
        self.ddr.alloc(nbytes)
        handle = self._next_handle
        self._next_handle += 1
        self._graph_handles[handle] = nbytes
        self._emit("allocate_graph", handle=handle, nbytes=nbytes)
        return handle

    def deallocate_graph(self, handle: int) -> None:
        """Release a graph's DDR reservation."""
        try:
            nbytes = self._graph_handles.pop(handle)
        except KeyError:
            raise AllocationError(
                f"unknown graph handle {handle}") from None
        self.ddr.release(nbytes)
        self._emit("deallocate_graph", handle=handle)

    # -- inference --------------------------------------------------------------
    def _plan_for(self, graph: CompiledGraph) -> _GraphPlan:
        """The memoised plan of *graph*; rebuilt when another runs."""
        plan = self._plan
        if plan is not None and plan.graph is graph:
            return plan
        used = min(graph.num_shaves, len(self.shaves))
        seconds = tuple(self.clock.to_seconds(sched.total_cycles)
                        for sched in graph.layers)
        busy = [0] * used
        kernels = [0] * used
        for sched in graph.layers:
            for i in range(min(sched.assignment.shaves_used, used)):
                busy[i] += sched.timing.compute_cycles
                kernels[i] += 1
        spilled = [sched.tile_plan for sched in graph.layers
                   if not sched.tile_plan.fits_cmx]
        plan = _GraphPlan(
            graph=graph,
            per_layer={sched.name: s
                       for sched, s in zip(graph.layers, seconds)},
            seconds=seconds,
            shave_totals=tuple(zip(busy, kernels)),
            dma_transfers=len(spilled),
            dma_bytes=sum(t.ddr_traffic_bytes for t in spilled),
            islands=(*(f"shave{i}" for i in range(used)),
                     "cmx", "ddr_if"))
        self._plan = plan
        return plan

    def run_inference(self, graph: CompiledGraph
                      ) -> Generator[Event, None, dict[str, float]]:
        """Execute one inference (a generator body the device runs
        inline); returns the per-layer seconds (``TIME_TAKEN``).

        Waits for the SHAVE array, gates the islands on, completes in
        one event, credits the SHAVE and DMA totals, gates them off.
        An inference stopped or interrupted mid-way credits nothing;
        its islands are still gated off and the array released.
        """
        plan = self._plan_for(graph)
        with self._shave_array.request() as req:
            yield req
            self.islands.power_on(*plan.islands)
            try:
                done = self.env.now
                for seconds in plan.seconds:
                    done += seconds
                yield self.env.timeout_at(done)
                for shave, (busy, kernels) in zip(self.shaves,
                                                  plan.shave_totals):
                    shave.record_execution(busy, kernels)
                self.dma.transfers += plan.dma_transfers
                self.dma.bytes_moved += plan.dma_bytes
            finally:
                self.islands.power_off(*plan.islands)
            self.inferences_completed += 1
            self._emit("inference_done", graph=graph.name)
            return dict(plan.per_layer)

    # -- misc ----------------------------------------------------------------------
    def _emit(self, action: str, **detail) -> None:
        if self.trace is not None:
            self.trace.emit(self.name, action, **detail)
