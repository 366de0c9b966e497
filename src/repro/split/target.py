"""Split-inference serving target: two device tiers, one pipeline.

:class:`SplitTarget` plugs a priced :class:`~repro.split.plan.SplitPlan`
into the serving framework's :class:`~repro.ncsw.targets.TargetDevice`
interface.  Each request flows through three FIFO-granted resources —
front compute units, the USB link, back compute units — so pipelining
emerges from the simulation itself: the front half of request ``k+1``
runs while the back half of request ``k`` is still computing, and the
makespan of an N-request batch converges on
``latency + (N-1) * bottleneck`` exactly as the cost model predicts.

Functionally, the front half executes with the placement's precision
policy and captures the cut blob; the back half consumes it with input
re-quantisation disabled (:func:`~repro.split.partition.half_policies`),
so the composed result is bit-identical to a monolithic forward under
:attr:`SplitTarget.equivalent_policy`.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

import numpy as np

from repro.ncsw.results import InferenceRecord
from repro.ncsw.sources import WorkItem
from repro.ncsw.targets import TargetDevice, record_from_probs
from repro.nn.graph import Network
from repro.numerics.quant import Precision, PrecisionPolicy
from repro.sim.core import Environment, Event
from repro.sim.resources import Resource
from repro.split.partition import half_policies, split_network
from repro.split.plan import SplitPlan, SplitPlanner
from repro.vpu.compiler.compile import CompiledGraph

#: Host-process warm-up charged once by :meth:`SplitTarget.prepare`
#: (framework start + graph allocation on both tiers; the stick boot
#: is folded in, matching the host targets' constant).
PREPARE_SECONDS = 0.5


class SplitTarget(TargetDevice):
    """A two-tier pipelined placement behind the TargetDevice API."""

    def __init__(self, network: Network, plan: SplitPlan, *,
                 functional: bool = True) -> None:
        self.network = network
        self.plan = plan
        self.cut = plan.cut
        self.functional = functional
        self.name = plan.name
        self.front_network, self.back_network = split_network(
            network, plan.cut)
        #: The monolithic precision policy this placement reproduces
        #: bit-for-bit: FP16 on whichever half runs on the VPU, FP32
        #: elsewhere.  The vpu-front policy also rounds the network
        #: input (the host-side FP16 conversion before USB submission);
        #: the vpu-back policy instead rounds the cut blob, because its
        #: producing host layer sits outside the FP16 layer filter and
        #: the wire conversion happens at the stick boundary.
        if plan.front_device == "vpu":
            self.equivalent_policy = PrecisionPolicy(
                Precision.FP16, True, True,
                layer_filter=frozenset(plan.cut.front_names),
                quantize_input=True)
        else:
            self.equivalent_policy = PrecisionPolicy.fp16_only(
                plan.cut.back_names)
        self.front_policy, self.back_policy = half_policies(
            self.equivalent_policy)
        self._front_units: Optional[Resource] = None
        self._link: Optional[Resource] = None
        self._back_units: Optional[Resource] = None
        self._front_track = f"{self.name}/front"
        self._back_track = f"{self.name}/back"

    # -- TargetDevice interface -----------------------------------------
    @property
    def tdp_watts(self) -> float:  # type: ignore[override]
        return self.plan.total_watts

    @property
    def preferred_batch_size(self) -> int:
        """Enough in-flight requests to keep every stage busy."""
        return max(2, self.plan.front_parallelism
                   + self.plan.back_parallelism)

    def prepare(self, env: Environment) -> Event:
        self._env = env
        self._front_units = Resource(env, self.plan.front_parallelism)
        self._link = Resource(env, 1)
        self._back_units = Resource(env, self.plan.back_parallelism)
        return env.timeout(PREPARE_SECONDS)

    # -- execution ------------------------------------------------------
    def _forward(self, items: List[WorkItem]) -> Optional[np.ndarray]:
        """Composed split forward of a batch (None in timing mode)."""
        tensors = [i.tensor for i in items]
        if not self.functional or any(t is None for t in tensors):
            return None
        x = np.stack(tensors)
        _, captured = self.front_network.forward_with_blobs(
            x, self.front_policy, capture=(self.cut.blob,))
        out = self.back_network.forward(
            captured[self.cut.blob], self.back_policy)
        return out.reshape(len(items), -1)

    def execute(self, items: List[WorkItem]
                ) -> Generator[Event, Any, List[InferenceRecord]]:
        assert self._env is not None
        probs = self._forward(items)
        procs = [self._env.process(self._pipeline(
            item, probs[pos] if probs is not None else None))
            for pos, item in enumerate(items)]
        values = yield self._env.all_of(procs)
        return [values[p] for p in procs]

    def _pipeline(self, item: WorkItem, flat: Optional[np.ndarray]
                  ) -> Generator[Event, Any, InferenceRecord]:
        """One request's walk through front -> link -> back."""
        env = self._env
        assert env is not None
        plan = self.plan
        front_units, link, back_units = (
            self._front_units, self._link, self._back_units)
        assert (front_units is not None and link is not None
                and back_units is not None)
        t0 = env.now
        obs = env.obs
        if obs is not None and item.trace is not None:
            obs.reqtrace.hop(item.trace, "device_submit",
                             track=self.name)

        req = front_units.request()
        yield req
        span = None
        if obs is not None:
            span = obs.tracer.begin("split_front",
                                    track=self._front_track)
        yield env.timeout(plan.front_seconds)
        if obs is not None:
            obs.tracer.end(span)
        front_units.release(req)
        if obs is not None and item.trace is not None:
            obs.reqtrace.hop(item.trace, "split_front_done",
                             track=self._front_track)

        req = link.request()
        yield req
        yield env.timeout(plan.link_seconds)
        link.release(req)
        if obs is not None and item.trace is not None:
            obs.reqtrace.hop(item.trace, "split_xfer_done",
                             track=self.name)

        req = back_units.request()
        yield req
        span = None
        if obs is not None:
            span = obs.tracer.begin("split_back",
                                    track=self._back_track)
        yield env.timeout(plan.back_seconds)
        if obs is not None:
            obs.tracer.end(span)
        back_units.release(req)
        if obs is not None and item.trace is not None:
            obs.reqtrace.hop(item.trace, "device_done",
                             track=self._back_track)
        return record_from_probs(item, flat, self.name, t0, env.now)


def build_split_target(network: Network, *,
                       graph: Optional[CompiledGraph] = None,
                       front: str = "vpu", back: str = "cpu",
                       num_sticks: int = 1,
                       objective: str = "latency",
                       functional: bool = True) -> SplitTarget:
    """Plan the best cut for *objective* and wrap it as a serving
    target."""
    planner = SplitPlanner(network, graph=graph, front=front,
                           back=back, num_sticks=num_sticks)
    return SplitTarget(network, planner.best(objective),
                       functional=functional)
