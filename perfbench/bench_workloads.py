"""The benchmark's workloads.

Each workload turns the ``--seed`` into its inputs, sets the program
up the way a user of the CLI would (that is the timed set-up), runs
one repetition of its measured unit of work, and checks the outputs.

* ``serve_mixed_kill`` -- open loop: Poisson arrivals into one
  ``InferenceServer`` over timing-only vpu8, gpu, cpu and a vpu2+cpu
  split backend; one vpu8 stick dies at a fixed simulated time.
* ``cluster_day_kill`` -- open loop: diurnal days over a 4-slot
  ``ClusterServer`` pool of alternating vpu2/cpu hosts, scaled by a
  ``ReactivePolicy``; slot 0's host dies at noon of the middle day.
* ``precision_subset`` -- closed loop, offline batches of 8: one Fig. 7
  validation subset through CPU FP32, GPU FP32 and VPU FP16.

The program only ever sees the generated inputs: arrival times (from
the seed) or the index of the validation subset (from the seed).
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.cluster import Autoscaler, ClusterServer, ReactivePolicy
from repro.harness import experiment
from repro.harness.experiment import (
    SCALES,
    paper_timing_graph,
    paper_timing_network,
)
from repro.ncsw import (
    FaultPlan,
    ImageFolder,
    IntelCPU,
    IntelVPU,
    NCSw,
    NvGPU,
    SyntheticSource,
)
from repro.serve import DiurnalWorkload, InferenceServer, PoissonWorkload
from repro.split import build_split_target
from repro.tensors.im2col import clear_patch_caches


#: Slack for simulated times that went through a relative delay.
_EPS = 1e-9


def digest(stats: dict[str, Any]) -> str:
    """Short stable hash of a workload's simulated statistics."""
    return hashlib.sha256(repr(sorted(stats.items())).encode()
                          ).hexdigest()[:16]


def _reset_caches() -> None:
    """Drop every cache a previous set-up in this process filled, so
    each timed set-up pays what a fresh ``repro`` process pays."""
    paper_timing_graph.cache_clear()
    paper_timing_network.cache_clear()
    clear_patch_caches()


def _queue_wait_p99_ms(requests) -> float:
    waits = [r.queue_wait for r in requests if r.queue_wait is not None]
    return float(np.percentile(waits, 99)) * 1e3 if waits else 0.0


def _fault_totals(targets) -> dict[str, int]:
    stats = [t.fault_stats() for t in targets]
    return {"ncsw.reassigned": sum(s.reassigned for s in stats),
            "ncsw.abandoned": sum(s.abandoned for s in stats)}


def _ledger_failures(result) -> list[str]:
    """The exactly-once ledger and the zero-loss requirement."""
    failures = []
    accounted = (result.completed + result.shed + result.rejected
                 + result.timed_out + result.abandoned)
    if accounted != result.offered:
        failures.append(f"ledger: {accounted} accounted != "
                        f"{result.offered} offered")
    if result.completed != result.offered:
        failures.append(f"lost work: {result.completed}/"
                        f"{result.offered} completed")
    return failures


class ServeMixedKill:
    """Mixed-tier online serving with one stick killed mid-serving."""

    name = "serve_mixed_kill"
    reps_per_setup = 1
    #: Arrivals per second: well under the four backends' combined
    #: capacity with one stick gone, so a correct program sheds and
    #: abandons nothing.
    rate = 90.0
    kill_stick = 3

    def __init__(self, seed: int, requests: int = 2000,
                 kill_at_s: float = 11.0) -> None:
        # The default kill lands mid-way through the ~22 s serving
        # window, which opens after ~0.57 s of device preparation.
        self.seed = seed
        self.requests = requests
        self.kill_at_s = kill_at_s

    reset = staticmethod(_reset_caches)

    def setup(self) -> None:
        self.prepare(None)

    def prepare(self, _state) -> dict:
        graph, network = paper_timing_graph(), paper_timing_network()
        targets = {
            "vpu8": IntelVPU(graph=graph, num_devices=8,
                             functional=False,
                             fault_plan=FaultPlan.kill(self.kill_stick,
                                                       self.kill_at_s),
                             call_timeout=0.5),
            "gpu": NvGPU(network, functional=False),
            "cpu": IntelCPU(network, functional=False),
            "vpu2+cpu": build_split_target(
                network, graph=graph, front="vpu", back="cpu",
                num_sticks=2, functional=False),
        }
        server = InferenceServer(queue_depth=64, admission="block",
                                 policy="least-outstanding",
                                 slo_seconds=0.5)
        for name, target in targets.items():
            server.add_target(name, target)
        workload = PoissonWorkload(rate=self.rate, seed=self.seed)
        return {"server": server, "targets": targets,
                "workload": workload}

    def run(self, prepared: dict):
        return prepared["server"].run(prepared["workload"],
                                      self.requests)

    def items(self, result) -> int:
        return result.offered

    def check(self, result) -> list[str]:
        failures = _ledger_failures(result)
        dead = [f for f in result.failures if f.kind == "death"]
        if (len(dead) != 1
                or dead[0].device != f"ncs{self.kill_stick}"
                or not self.kill_at_s - _EPS <= dead[0].time
                <= result.prepare_seconds + result.wall_seconds):
            failures.append(f"kill: expected one death of "
                            f"ncs{self.kill_stick} inside the serving "
                            f"window, saw {result.failures!r}")
        return failures

    def stats(self, result) -> dict[str, Any]:
        return {
            "offered": result.offered, "completed": result.completed,
            "p50": result.p50, "p99": result.p99,
            "goodput": result.goodput,
            "wall": result.wall_seconds,
            "per_backend": sorted(result.per_backend_counts().items()),
            "failures": [(f.device, f.time, f.kind, f.requeued)
                         for f in result.failures],
        }

    def layer_counts(self, prepared: dict, result) -> dict[str, float]:
        completed = result.completed_requests()
        return {
            **_fault_totals(prepared["targets"].values()),
            "split.items": result.per_backend_counts().get("vpu2+cpu",
                                                           0),
            "serve.queue_wait_p99_ms": _queue_wait_p99_ms(completed),
            "serve.redirects": sum(r.redirects for r in completed),
        }


class ClusterDayKill:
    """Elastic diurnal days on a 4-slot cluster with a host death.

    A peak of 2.5x one vpu2 host's closed-loop rate needs three or four
    live hosts, so the autoscaler scales out through each morning and
    back in through each evening.  Ten-second days give the reactive
    policy time to follow the load; over the ~11 days of 3 000
    requests, which hosts served how much averages out across seeds.
    Slot 0 dies at noon of the middle day, when the whole pool is live.
    """

    name = "cluster_day_kill"
    reps_per_setup = 1
    pool = 4
    host_backends = ("vpu2", "cpu")
    peak_per_host = 2.5
    floor = 0.1
    period_s = 10.0
    kill_slot = 0

    def __init__(self, seed: int, requests: int = 3000) -> None:
        self.seed = seed
        self.requests = requests

    reset = staticmethod(_reset_caches)

    def _host_target(self, index: int):
        token = self.host_backends[index % len(self.host_backends)]
        if token == "cpu":
            return IntelCPU(paper_timing_network(), functional=False)
        return IntelVPU(graph=paper_timing_graph(),
                        num_devices=int(token[3:]), functional=False)

    def setup(self) -> dict:
        # Capacity calibration, exactly as ``autoscale-run`` sizes its
        # day: one host's closed-loop throughput on 64 images.
        fw = NCSw()
        fw.add_source("synthetic", SyntheticSource(64))
        target = self._host_target(0)
        fw.add_target("host", target)
        host_rate = fw.run("synthetic", "host",
                           batch_size=target.preferred_batch_size
                           ).throughput()
        state = {"host_rate": host_rate}
        self.prepare(state)
        return state

    def peak_and_kill(self, host_rate: float) -> tuple[float, float]:
        """``(peak rate, kill time)`` of the run for a host rate."""
        peak = self.peak_per_host * host_rate
        mean_rate = peak * (1.0 + self.floor) / 2.0
        days = self.requests / (mean_rate * self.period_s)
        return peak, self.period_s * (int(days / 2) + 0.5)

    def prepare(self, state: dict) -> dict:
        peak, self.kill_at_s = self.peak_and_kill(state["host_rate"])
        workload = DiurnalWorkload(peak_rate=peak, period_s=self.period_s,
                                   floor_frac=self.floor,
                                   seed=self.seed)
        autoscaler = Autoscaler(
            ReactivePolicy(high_water=4.0, low_water=1.0),
            min_hosts=1, max_hosts=self.pool, interval_s=0.02,
            cooldown_s=0.05, warm_pool=1)
        targets = [self._host_target(i) for i in range(self.pool)]
        server = ClusterServer(
            targets, queue_depth=64, admission="block",
            slo_seconds=0.5, autoscaler=autoscaler,
            host_faults=FaultPlan.kill(self.kill_slot, self.kill_at_s))
        return {"server": server, "targets": targets,
                "workload": workload}

    def run(self, prepared: dict):
        return prepared["server"].run(prepared["workload"],
                                      self.requests)

    def items(self, result) -> int:
        return result.offered

    def check(self, result) -> list[str]:
        failures = _ledger_failures(result)
        killed = [s for s in result.shards if s.killed_at is not None]
        if (len(killed) != 1
                or abs(killed[0].killed_at - self.kill_at_s) > _EPS):
            failures.append(
                f"kill: expected slot {self.kill_slot} to die at "
                f"{self.kill_at_s} s, saw "
                f"{[(s.name, s.killed_at) for s in killed]}")
        return failures

    def stats(self, result) -> dict[str, Any]:
        return {
            "offered": result.offered, "completed": result.completed,
            "p50": result.p50, "p99": result.p99,
            "goodput": result.goodput,
            "wall": result.wall_seconds,
            "host_seconds": result.host_seconds,
            "resharded": result.resharded,
            "scale_events": [(e.time, e.action, e.host)
                             for e in result.scale_events],
            "per_host": sorted(result.per_host_counts().items()),
        }

    def layer_counts(self, prepared: dict, result) -> dict[str, float]:
        completed = result.completed_requests()
        return {
            **_fault_totals(prepared["targets"]),
            "serve.queue_wait_p99_ms": _queue_wait_p99_ms(completed),
            "serve.redirects": sum(r.redirects for r in completed),
            "cluster.scale_events": len(result.scale_events),
            "cluster.reshards": result.resharded,
            "cluster.host_s": result.host_seconds,
        }


class PrecisionSubset:
    """Fig. 7 functional campaign on one validation subset."""

    name = "precision_subset"
    #: A set-up costs more than a repetition here; three repetitions
    #: per set-up leave most of the run to the measured work.
    reps_per_setup = 3
    batch_size = 8

    def __init__(self, seed: int, scale: str = "default") -> None:
        self.scale = SCALES[scale]
        self.subset = seed % self.scale.num_subsets

    @staticmethod
    def reset() -> None:
        clear_patch_caches()

    def setup(self):
        return experiment.build_context(self.scale)

    def prepare(self, ctx) -> dict:
        fw = NCSw()
        fw.add_source("val", ImageFolder(
            ctx.dataset, self.subset, ctx.preprocessor,
            limit=self.scale.images_per_subset))
        fw.add_target("cpu", IntelCPU(ctx.network, functional=True))
        fw.add_target("gpu", NvGPU(ctx.network, functional=True))
        fw.add_target("vpu", IntelVPU(graph=ctx.graph, num_devices=8,
                                      functional=True))
        return {"fw": fw}

    def run(self, prepared: dict) -> dict:
        fw = prepared["fw"]
        return {name: fw.run("val", name, batch_size=self.batch_size)
                for name in ("cpu", "gpu", "vpu")}

    def items(self, runs: dict) -> int:
        return sum(r.images for r in runs.values())

    @staticmethod
    def _fp16_bound_holds(delta: float) -> bool:
        """The claims audit's check on the FP16-vs-FP32 error delta."""
        from repro.harness.claims import _BOUND_CHECKS, FUNCTIONAL_CLAIMS

        claim = next(c for c in FUNCTIONAL_CLAIMS
                     if c.claim_id == "fp16-error-delta")
        return _BOUND_CHECKS[claim.claim_id](delta, claim.paper_value)

    def check(self, runs: dict) -> list[str]:
        failures = []
        for name, run in runs.items():
            if run.images != self.scale.images_per_subset:
                failures.append(f"{name}: {run.images} images "
                                f"classified, expected "
                                f"{self.scale.images_per_subset}")
            if run.failures or run.abandoned:
                failures.append(f"{name}: device failures "
                                f"{run.failures!r}")
        cpu, gpu = (sorted((r.image_id, r.predicted)
                           for r in runs[k].records)
                    for k in ("cpu", "gpu"))
        if cpu != gpu:
            failures.append("CPU and GPU FP32 predictions differ")
        delta = abs(runs["cpu"].top1_error() - runs["vpu"].top1_error())
        if not self._fp16_bound_holds(delta):
            failures.append(f"FP16-vs-FP32 top-1 delta {delta} is "
                            "outside the claims audit's bound")
        return failures

    def stats(self, runs: dict) -> dict[str, Any]:
        out: dict[str, Any] = {"subset": self.subset}
        for name, run in runs.items():
            out[f"{name}_top1_error"] = run.top1_error()
            out[f"{name}_predictions"] = digest(
                {str(r.image_id): (r.predicted, r.confidence)
                 for r in run.records})
        return out

    def layer_counts(self, prepared: dict, runs: dict) -> dict[str, float]:
        return {"ncsw.reassigned": sum(r.reassigned
                                       for r in runs.values()),
                "ncsw.abandoned": sum(r.abandoned for r in runs.values())}


WORKLOADS = {w.name: w for w in (ServeMixedKill, ClusterDayKill,
                                 PrecisionSubset)}
