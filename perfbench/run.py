"""Benchmark entry point: one workload, measured or traced.

Run from the repository root::

    python3 perfbench/run.py --workload serve_mixed_kill --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's unit of work repeats until ``--seconds`` of host time have
passed, with a fresh set-up (caches dropped) before every few
repetitions; ``items_per_s`` and ``setup_s`` are the medians over
repetitions and set-ups.  ``--trace 1`` runs set-up plus one repetition
three times untraced and three times traced, and reports the medians
of the per-layer metrics.
Every repetition's outputs are checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from time import perf_counter

#: BLAS threads for every run.  One thread keeps the NumPy work of
#: the functional workload off the second core, whose availability
#: varies with what else the machine runs, and is identical on both
#: sides of any comparison.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The per-layer metrics of a traced run, with their units.
LAYER_METRICS = {
    "sim.self_s": "s", "sim.events": "count", "sim.ns_per_event": "ns",
    "vpu.self_s": "s", "vpu.inferences": "count",
    "vpu.us_per_inference": "us", "vpu.compile_s": "s",
    "ncs.self_s": "s", "ncs.calls": "count", "ncs.usb_mb": "MB",
    "ncs.timeouts": "count",
    "ncsw.self_s": "s", "ncsw.reassigned": "count",
    "ncsw.abandoned": "count",
    "split.self_s": "s", "split.items": "count",
    "serve.self_s": "s", "serve.batches": "count",
    "serve.mean_batch": "requests", "serve.queue_wait_p99_ms": "ms",
    "serve.redirects": "count",
    "cluster.self_s": "s", "cluster.scale_events": "count",
    "cluster.reshards": "count", "cluster.host_s": "s",
    "mpi.self_s": "s", "mpi.messages": "count",
    "nn.self_s": "s", "nn.forwards": "count", "nn.conv_s": "s",
    "nn.pool_s": "s", "nn.lrn_s": "s",
    "tensors.self_s": "s", "tensors.im2col_s": "s",
    "numerics.self_s": "s", "numerics.fp16_rounds": "count",
    "data.self_s": "s", "data.images_synthesized": "count",
    "harness.context_s": "s",
    "other.self_s": "s",
    "trace.overhead": "ratio", "unattributed_s": "s",
}

#: Packages with a ``<package>.self_s`` metric of their own; every
#: other ``repro`` package's self time is summed into ``other.self_s``.
LAYERS = tuple(name[:-len(".self_s")] for name in LAYER_METRICS
               if name.endswith(".self_s") and name != "other.self_s")

#: Untraced and traced passes of a ``--trace 1`` run; one pass is a
#: single sample of a host whose speed drifts, so take medians.
TRACE_PASSES = 3


def _pin_blas_threads() -> None:
    """Fix the BLAS pool size; must run before NumPy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("NumPy was imported before the BLAS thread "
                           "count was pinned")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _environment() -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return out, perf_counter() - start


def _checked_rep(workload, out, seconds: float, first_digest):
    """A :class:`Rep` for one repetition's output, plus the digest of
    its simulated statistics and the statistics themselves."""
    from bench_stats import Rep
    from bench_workloads import digest

    failures = workload.check(out)
    stats = workload.stats(out)
    this = digest(stats)
    if first_digest is not None and this != first_digest:
        failures.append(f"simulated statistics digest {this} differs "
                        f"from the first repetition's {first_digest}")
    return Rep(workload.items(out), seconds, failures), this, stats


def measure(workload, seconds: float
            ) -> tuple[list, list, float, str, dict]:
    """Timed set-ups and repetitions for ``seconds`` of host time.

    A set-up (caches dropped first) precedes every
    ``workload.reps_per_setup`` repetitions, so set-up samples are
    spread over the whole run like the repetitions are, and both
    medians see the same slow drifts of the host's speed.

    Peak memory is read after the first set-up and repetition, which
    is what one CLI run of the workload holds.  Later repetitions
    reuse freed memory only as well as the allocator's fragmentation
    allows, which made the process peak jump between runs by the size
    of a whole simulation.

    Returns ``(set-up samples, reps, peak RSS MB, digest, last
    stats)``.
    """
    setups, reps = [], []
    first = state = None
    deadline = perf_counter() + seconds
    while True:
        if len(reps) % workload.reps_per_setup == 0:
            state = None
            workload.reset()
            gc.collect()
            state, took = _timed(workload.setup)
            setups.append(took)
        prepared = workload.prepare(state)
        gc.collect()
        out, took = _timed(workload.run, prepared)
        rep, this, stats = _checked_rep(workload, out, took, first)
        # Only one repetition's simulation is alive at a time, as in
        # a single CLI run, so peak memory is the program's own.
        del prepared, out
        if first is None:
            first, peak_mb = this, _peak_rss_mb()
        reps.append(rep)
        if perf_counter() >= deadline:
            break
    return setups, reps, peak_mb, first, stats


def _one_pass(workload):
    """Set up and run one repetition."""
    state = workload.setup()
    prepared = workload.prepare(state)
    return prepared, workload.run(prepared)


def _traced_pass(workload):
    """One pass under the layer probes and the profiler.

    Returns ``(layer values, wall seconds, prepared, output)``; the
    values lack ``trace.overhead``, which needs the untraced passes.
    """
    import cProfile
    import pstats

    import repro
    from bench_stats import self_times, unattributed
    from bench_trace import LAYER_PROBES, Tracer, attribute, install

    tracer = Tracer()
    remove = install(tracer, LAYER_PROBES)
    profiler = cProfile.Profile()
    start = perf_counter()
    profiler.enable()
    try:
        prepared, out = _one_pass(workload)
    finally:
        profiler.disable()
        wall = perf_counter() - start
        remove()

    by_package, _ = attribute(pstats.Stats(profiler).stats,
                              os.path.dirname(repro.__file__))
    span_self = self_times(tracer.spans)
    span_total: dict[str, float] = {}
    for span in tracer.spans:
        span_total[span.name] = span_total.get(span.name, 0.0) \
            + span.duration
    counts = dict(tracer.counts)
    counts.update(workload.layer_counts(prepared, out))

    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = by_package.get(layer, 0.0)
    values["other.self_s"] = sum(s for pkg, s in by_package.items()
                                 if pkg not in LAYERS)
    events = counts.get("sim.events", 0)
    inferences = counts.get("vpu.inferences", 0)
    batches = counts.get("serve.batches", 0)
    values.update({
        "sim.events": events,
        "sim.ns_per_event": (values["sim.self_s"] / events * 1e9
                             if events else 0.0),
        "vpu.inferences": inferences,
        "vpu.us_per_inference": (values["vpu.self_s"] / inferences * 1e6
                                 if inferences else 0.0),
        "vpu.compile_s": span_total.get("vpu.compile", 0.0),
        "ncs.calls": counts.get("ncs.calls", 0),
        "ncs.usb_mb": counts.get("ncs.usb_bytes", 0) / 1e6,
        "ncs.timeouts": counts.get("ncs.timeouts", 0),
        "ncsw.reassigned": counts.get("ncsw.reassigned", 0),
        "ncsw.abandoned": counts.get("ncsw.abandoned", 0),
        "split.items": counts.get("split.items", 0),
        "serve.batches": batches,
        "serve.mean_batch": (counts.get("serve.batched_requests", 0)
                             / batches if batches else 0.0),
        "serve.queue_wait_p99_ms": counts.get("serve.queue_wait_p99_ms",
                                              0.0),
        "serve.redirects": counts.get("serve.redirects", 0),
        "cluster.scale_events": counts.get("cluster.scale_events", 0),
        "cluster.reshards": counts.get("cluster.reshards", 0),
        "cluster.host_s": counts.get("cluster.host_s", 0.0),
        "mpi.messages": counts.get("mpi.messages", 0),
        "nn.forwards": counts.get("nn.forwards", 0),
        "nn.conv_s": span_self.get("nn.conv", 0.0),
        "nn.pool_s": span_self.get("nn.pool", 0.0),
        "nn.lrn_s": span_self.get("nn.lrn", 0.0),
        "tensors.im2col_s": span_self.get("tensors.im2col", 0.0),
        "numerics.fp16_rounds": counts.get("numerics.fp16_rounds", 0),
        "data.images_synthesized": counts.get("data.images_synthesized",
                                              0),
        "harness.context_s": span_total.get("harness.context", 0.0),
        "unattributed_s": unattributed(wall, by_package.values()),
    })
    return values, wall, prepared, out


def traced(workload) -> tuple[dict, list, str, dict]:
    """Set-up plus one repetition, :data:`TRACE_PASSES` times untraced
    and then as often traced; each per-layer metric is the median over
    the traced passes.

    Every pass's output is checked, and the counts (metrics in
    ``count`` units) must repeat exactly from pass to pass.  Returns
    ``(per-layer metrics, reps, digest, stats)``.
    """
    from bench_stats import median

    reps, untraced_s, walls, samples = [], [], [], []
    first = None
    for traced_pass in [False] * TRACE_PASSES + [True] * TRACE_PASSES:
        workload.reset()
        gc.collect()
        if traced_pass:
            values, took, prepared, out = _traced_pass(workload)
            samples.append(values)
            walls.append(took)
        else:
            (prepared, out), took = _timed(_one_pass, workload)
            untraced_s.append(took)
        rep, this, stats = _checked_rep(workload, out, took, first)
        del prepared, out
        first = first or this
        reps.append(rep)
    counts = [name for name, unit in LAYER_METRICS.items()
              if unit == "count"]
    for name in counts:
        seen = {s[name] for s in samples}
        if len(seen) > 1:
            reps[-1].failures.append(
                f"{name} differs between traced passes: {sorted(seen)}")
    values = {name: median([s[name] for s in samples])
              for name in samples[0]}
    values["trace.overhead"] = median(walls) / median(untraced_s)
    metrics = {name: _metric(values[name], unit)
               for name, unit in LAYER_METRICS.items()}
    return metrics, reps, first, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _pin_blas_threads()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from bench_stats import items_per_s, median, quartile_spread, tally
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    print("env: " + json.dumps(_environment(), sort_keys=True))

    if args.trace:
        metrics, reps, this, stats = traced(workload)
        self_s = {name[:-len(".self_s")]: m["value"]
                  for name, m in metrics.items()
                  if name.endswith(".self_s")}
        attributed = sum(self_s.values())
        print("share of attributed self time: " + " ".join(
            f"{layer}={s / attributed:.3f}"
            for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1])
            if s > 0))
    else:
        setups, reps, peak_mb, this, stats = measure(workload,
                                                     args.seconds)
        rates = [r.items / r.seconds for r in reps]
        for name, samples in (("setup_s", setups), ("items_per_s", rates)):
            spread = (f" (quartile spread {quartile_spread(samples):.3f})"
                      if len(samples) > 1 else "")
            print(f"{name} samples{spread}: "
                  + " ".join(f"{v:.4g}" for v in samples))
        metrics = {
            "items_per_s": _metric(items_per_s(reps), "1/s"),
            "setup_s": _metric(median(setups), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
        }
    print(f"digest: {workload.name} seed={args.seed} {this} "
          + json.dumps(stats, sort_keys=True, default=str))
    for rep in reps:
        for failure in rep.failures:
            print(f"check failed: {failure}")
    attempted, failed = tally(reps)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
