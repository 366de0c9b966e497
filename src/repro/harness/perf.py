"""Wall-clock performance harness for the repository's hot paths.

Unlike the figure drivers — which measure *simulated* time — this
module measures *host* wall-clock over four canonical workloads:

* ``sim_events_per_sec`` — a pure DES producer/consumer/resource
  workload on :mod:`repro.sim` (the kernel under every experiment).
* ``googlenet_fp32_img_s`` / ``googlenet_fp16_img_s`` — functional
  GoogLeNet-mini forward passes at batch 8 in both precision
  policies (the numerics under every functional experiment).
* ``serve_req_per_sec`` — one end-to-end open-loop serving run
  (workload synthesis, admission, batching, routing, multi-VPU
  simulation), i.e. the ``serve-run`` smoke path.
* ``fluid_day_s`` — a million-user diurnal autoscale day under the
  hybrid fluid model (:mod:`repro.sim.fluid`).  The value is a rate
  (simulated days per wall second, higher = better) so the
  regression gate treats it like every other workload; the detail
  records the raw wall seconds.

``python -m repro perf-run`` times the suite and can write / check
``BENCH_PR9.json`` at the repository root:

* ``--out FILE`` writes the measured numbers (optionally folding in a
  previously recorded ``--baseline FILE`` so the file carries
  before/after numbers and speedups).
* ``--check FILE`` compares the current machine against the committed
  numbers and exits non-zero on a wall-clock regression beyond
  ``--tolerance`` (the CI perf gate).

Every sample records a *host calibration* score — a fixed pure-Python
spin loop — so checks on a machine slower or faster than the one that
recorded the file rescale the committed numbers instead of comparing
raw wall-clock across different silicon.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

#: Schema version of BENCH_*.json files.
BENCH_SCHEMA = 1

#: Default benchmark artefact at the repository root.
BENCH_FILENAME = "BENCH_PR9.json"


@dataclass
class BenchSample:
    """One timed workload. ``value`` is always a rate (higher=better)."""

    name: str
    metric: str            #: unit of ``value``, e.g. ``img/s``
    value: float           #: best-of-``repeats`` rate
    wall_seconds: float    #: wall time of the best repeat
    repeats: int
    detail: dict = field(default_factory=dict)


def calibrate_host(ops: int = 300_000) -> float:
    """Machine-speed score: pure-Python ops/sec of a fixed spin loop.

    Used to rescale recorded baselines when the checking machine is
    not the recording machine.  The loop exercises the interpreter
    operations the DES kernel leans on (attribute access, integer
    arithmetic, method calls) rather than NumPy throughput.
    """
    class _Cell:
        __slots__ = ("v",)

        def __init__(self) -> None:
            self.v = 0

    cell = _Cell()
    items: list[int] = []
    t0 = time.perf_counter()
    for i in range(ops):
        cell.v = cell.v + i
        if not i & 1023:
            items.append(i)
    dt = time.perf_counter() - t0
    # Fold the list back in so the loop cannot be optimised away.
    cell.v += len(items)
    return ops / dt


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _sim_workload(n_items: int, n_workers: int = 4) -> int:
    """Producer/consumer/resource pipeline; returns events scheduled."""
    from repro.sim.core import Environment
    from repro.sim.resources import Resource, Store

    env = Environment()
    store = Store(env, capacity=32)
    done = Store(env)
    cpu = Resource(env, capacity=2)

    def producer():
        for i in range(n_items):
            yield store.put(i)
            yield env.timeout(0.001)

    def worker():
        while True:
            item = yield store.get()
            with cpu.request() as req:
                yield req
                yield env.timeout(0.01)
            yield done.put(item)

    def drain():
        for _ in range(n_items):
            yield done.get()

    env.process(producer())
    for _ in range(n_workers):
        env.process(worker())
    env.run(until=env.process(drain()))
    return env._seq


def _best_of(fn: Callable[[], tuple[float, dict]], repeats: int
             ) -> tuple[float, float, dict]:
    """Run ``fn`` ``repeats`` times; return (best rate, wall, detail)."""
    best_rate, best_wall, best_detail = 0.0, float("inf"), {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        units, detail = fn()
        wall = time.perf_counter() - t0
        rate = units / wall if wall > 0 else float("inf")
        if rate > best_rate:
            best_rate, best_wall, best_detail = rate, wall, detail
    return best_rate, best_wall, best_detail


def bench_sim(n_items: int = 3000, repeats: int = 3) -> BenchSample:
    """Events/sec of the canonical DES workload."""
    _sim_workload(200)  # warm the kernel code paths

    def once() -> tuple[float, dict]:
        events = _sim_workload(n_items)
        return float(events), {"events": events, "items": n_items}

    rate, wall, detail = _best_of(once, repeats)
    return BenchSample("sim_events_per_sec", "events/s", rate, wall,
                       repeats, detail)


def bench_fluid(requests: int = 1_000_000,
                repeats: int = 3) -> BenchSample:
    """Simulated diurnal days per wall second of the hybrid model.

    One million requests over a diurnal cycle with the reactive
    autoscaler — the campaign shape ``autoscale-sweep --fluid``
    runs.  Rates are synthetic (no device calibration) so the bench
    is hermetic; the detail records the raw day wall seconds.
    """
    from repro.cluster.autoscale import Autoscaler, ReactivePolicy
    from repro.serve.workload import DiurnalWorkload
    from repro.sim.fluid import FluidCluster

    def day() -> "FluidCluster":
        return FluidCluster(
            DiurnalWorkload(peak_rate=180000.0, period_s=10.0,
                            floor_frac=0.1, seed=7),
            host_rate=30000.0, pool=8,
            autoscaler=Autoscaler(
                ReactivePolicy(high_water=2.0, low_water=0.5),
                min_hosts=2, max_hosts=8, interval_s=0.02,
                cooldown_s=0.05, warm_pool=2),
            slo_seconds=0.250, service_floor_s=8 / 30000.0, seed=7)

    result = day().run(max(1000, requests // 10))  # warm

    def once() -> tuple[float, dict]:
        result = day().run(requests)
        return 1.0, {
            "requests": requests,
            "day_wall_s": result.elapsed_s,
            "fluid_windows": result.fluid_windows,
            "des_windows": result.des_windows,
            "slo_attainment": result.slo_attainment}

    rate, wall, detail = _best_of(once, repeats)
    return BenchSample("fluid_day_s", "day/s", rate, wall, repeats,
                       detail)


def bench_forward(precision: str = "fp32", batch: int = 8,
                  model: str = "googlenet-mini", forwards: int = 12,
                  repeats: int = 3) -> BenchSample:
    """Images/sec of functional GoogLeNet forward passes."""
    import numpy as np

    from repro.nn.weights import initialize_network
    from repro.nn.zoo import get_model
    from repro.numerics.quant import PrecisionPolicy

    net = get_model(model)
    initialize_network(net)
    s = net.input_shape
    x = np.random.RandomState(0).rand(
        batch, s.c, s.h, s.w).astype(np.float32)
    policy = (PrecisionPolicy.fp16() if precision == "fp16"
              else PrecisionPolicy.fp32())
    net.forward(x, policy)  # warm caches (indices, quantised weights)

    def once() -> tuple[float, dict]:
        for _ in range(forwards):
            net.forward(x, policy)
        return float(forwards * batch), {
            "model": model, "batch": batch, "forwards": forwards,
            "precision": precision}

    rate, wall, detail = _best_of(once, repeats)
    return BenchSample(f"googlenet_{precision}_img_s", "img/s", rate,
                       wall, repeats, detail)


def bench_serve(requests: int = 80, rate: float = 60.0,
                devices: int = 2, repeats: int = 2) -> BenchSample:
    """Host-side requests/sec of one end-to-end serving smoke run."""
    from repro.harness.experiment import paper_timing_graph
    from repro.ncsw.targets import IntelVPU
    from repro.serve import InferenceServer, PoissonWorkload

    graph = paper_timing_graph()  # compile outside the timed region

    def once() -> tuple[float, dict]:
        server = InferenceServer()
        server.add_target("vpu", IntelVPU(
            graph=graph, num_devices=devices, functional=False))
        result = server.run(PoissonWorkload(rate=rate, seed=7),
                            requests)
        return float(requests), {
            "requests": requests, "rate": rate, "devices": devices,
            "completed": result.completed}

    once()  # warm
    rate_out, wall, detail = _best_of(once, repeats)
    return BenchSample("serve_req_per_sec", "req/s", rate_out, wall,
                       repeats, detail)


#: Workload sizes per mode.  ``smoke`` keeps CI under a minute; both
#: modes measure rates, so their numbers are directly comparable.
_MODES: dict[str, dict[str, int]] = {
    "full": {"sim_items": 4000, "forwards": 12, "requests": 80,
             "fluid_requests": 1_000_000},
    "smoke": {"sim_items": 1200, "forwards": 4, "requests": 32,
              "fluid_requests": 200_000},
}


def run_suite(mode: str = "full") -> dict[str, BenchSample]:
    """Time every canonical workload; returns name -> sample."""
    if mode not in _MODES:
        raise ValueError(f"unknown perf mode {mode!r}; "
                         f"expected one of {sorted(_MODES)}")
    size = _MODES[mode]
    samples = [
        bench_sim(n_items=size["sim_items"]),
        bench_forward("fp32", forwards=size["forwards"]),
        bench_forward("fp16", forwards=size["forwards"]),
        bench_serve(requests=size["requests"]),
        bench_fluid(requests=size["fluid_requests"]),
    ]
    return {s.name: s for s in samples}


# ---------------------------------------------------------------------------
# BENCH_*.json I/O and the regression gate
# ---------------------------------------------------------------------------

def suite_to_dict(samples: dict[str, BenchSample]) -> dict:
    """JSON-serialisable form of a measured suite."""
    return {name: asdict(s) for name, s in samples.items()}


def write_bench(path: str | Path,
                modes: dict[str, dict[str, BenchSample]],
                baseline: Optional[dict] = None) -> Path:
    """Write a BENCH file.

    ``modes`` maps mode name -> samples; ``baseline`` is a previously
    written BENCH document (the pre-optimisation numbers) whose
    workloads are embedded so the file carries before/after numbers
    and per-workload speedups.
    """
    doc: dict = {
        "schema": BENCH_SCHEMA,
        "calibration_ops_per_sec": calibrate_host(),
        "modes": {m: suite_to_dict(s) for m, s in modes.items()},
    }
    if baseline is not None:
        doc["baseline"] = {
            "calibration_ops_per_sec":
                baseline.get("calibration_ops_per_sec"),
            "modes": baseline.get("modes", {}),
        }
        speedup: dict[str, float] = {}
        base_full = baseline.get("modes", {}).get("full", {})
        for name, sample in doc["modes"].get("full", {}).items():
            base = base_full.get(name)
            if base and base.get("value"):
                speedup[name] = sample["value"] / base["value"]
        doc["speedup_vs_baseline"] = speedup
    out = Path(path)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return out


def load_bench(path: str | Path) -> dict:
    """Read and schema-check a BENCH document."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported BENCH schema {doc.get('schema')!r}")
    return doc


def check_regression(current: dict[str, BenchSample], committed: dict,
                     mode: str = "smoke",
                     tolerance: float = 0.25) -> list[str]:
    """Compare a fresh run against a committed BENCH document.

    Returns human-readable failure strings for every workload whose
    current rate falls more than ``tolerance`` below the committed
    rate after rescaling for machine speed; empty list means pass.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    committed_modes = committed.get("modes", {})
    if mode not in committed_modes:
        raise ValueError(
            f"committed BENCH file has no {mode!r} mode "
            f"(has {sorted(committed_modes)})")
    ref_calib = committed.get("calibration_ops_per_sec") or 0.0
    now_calib = calibrate_host()
    scale = (now_calib / ref_calib) if ref_calib > 0 else 1.0
    failures = []
    for name, ref in committed_modes[mode].items():
        sample = current.get(name)
        if sample is None:
            failures.append(f"{name}: missing from current run")
            continue
        expected = ref["value"] * scale
        floor = expected * (1.0 - tolerance)
        if sample.value < floor:
            failures.append(
                f"{name}: {sample.value:.1f} {sample.metric} < "
                f"{floor:.1f} (committed {ref['value']:.1f} x "
                f"machine-speed {scale:.2f} - {tolerance:.0%})")
    return failures


def render_perf_table(samples: dict[str, BenchSample],
                      baseline_modes: Optional[dict] = None,
                      mode: str = "full") -> str:
    """Terminal table of the measured rates (and speedups if known)."""
    base = (baseline_modes or {}).get(mode, {})
    lines = [f"perf suite ({mode})",
             f"{'workload':<26}{'rate':>14}  {'unit':<10}{'speedup':>8}"]
    for name, s in samples.items():
        ref = base.get(name)
        speed = (f"{s.value / ref['value']:.2f}x"
                 if ref and ref.get("value") else "-")
        lines.append(
            f"{name:<26}{s.value:>14.1f}  {s.metric:<10}{speed:>8}")
    return "\n".join(lines)
