"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import bench_trace  # noqa: E402
import run  # noqa: E402
from bench_stats import (  # noqa: E402
    Rep,
    Span,
    items_per_s,
    median,
    quartile_spread,
    self_times,
    tally,
    unattributed,
)
from bench_workloads import (  # noqa: E402
    WORKLOADS,
    ClusterDayKill,
    PrecisionSubset,
    ServeMixedKill,
)


# -- metric arithmetic ----------------------------------------------------

def test_median_and_quartile_spread_follow_statistics_quantiles():
    values = [float(v) for v in range(1, 11)]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert median(values) == q2 == 5.5
    assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)
    assert quartile_spread([3.0, 3.0, 3.0]) == 0.0
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        quartile_spread([1.0])


def test_items_per_s_is_the_median_rate_and_failed_reps_count_zero():
    reps = [Rep(100, 1.0), Rep(100, 2.0), Rep(100, 0.5, ["wrong"])]
    # rates 100, 50 and 0 (the failed rep completed nothing useful)
    assert items_per_s(reps) == 50.0
    assert items_per_s([Rep(100, 1.0), Rep(300, 2.0)]) == 125.0
    with pytest.raises(ValueError):
        items_per_s([])


def test_a_failed_check_fails_every_operation_of_the_run():
    assert tally([Rep(10, 1.0), Rep(20, 1.0)]) == (30, 0)
    assert tally([Rep(10, 1.0), Rep(20, 1.0, ["bad"])]) == (30, 30)


def test_self_time_subtracts_direct_children():
    spans = [Span("a", 0.0, 10.0),
             Span("b", 1.0, 4.0, parent=0),
             Span("c", 5.0, 6.0, parent=0),
             Span("d", 2.0, 3.0, parent=1),
             Span("c", 11.0, 13.0)]
    assert self_times(spans) == pytest.approx(
        {"a": 6.0, "b": 2.0, "c": 3.0, "d": 1.0})


def test_unattributed_is_wall_minus_layer_self_times():
    assert unattributed(10.0, [6.0, 2.0, 1.0]) == pytest.approx(1.0)
    assert unattributed(1.0, []) == 1.0


# -- profile attribution ---------------------------------------------------

def test_foreign_time_is_charged_to_the_calling_package():
    root = os.path.join(os.sep, "x", "src", "repro")
    vpu = (os.path.join(root, "vpu", "myriad2.py"), 1, "_inference")
    nn = (os.path.join(root, "nn", "conv.py"), 1, "forward")
    top = (os.path.join(root, "errors.py"), 1, "__init__")
    numpy_py = (os.path.join(os.sep, "site", "numpy", "x.py"), 1, "f")
    dot = ("~", 0, "<built-in method numpy.dot>")
    take = ("~", 0, "<method 'take' of 'numpy.ndarray' objects>")
    main = (os.path.join(HERE, "run.py"), 1, "main")
    perf = ("~", 0, "<built-in method time.perf_counter>")
    stats = {
        vpu: (1, 1, 1.0, 1.2, {}),
        nn: (1, 1, 0.5, 2.6, {}),
        top: (1, 1, 0.1, 0.1, {}),
        numpy_py: (1, 1, 0.2, 1.2, {nn: (1, 1, 0.2, 1.2)}),
        dot: (1, 1, 1.0, 1.0, {numpy_py: (1, 1, 1.0, 1.0)}),
        take: (2, 2, 0.6, 0.6, {vpu: (1, 1, 0.2, 0.2),
                                nn: (1, 1, 0.4, 0.4)}),
        main: (1, 1, 0.3, 5.0, {}),
        perf: (1, 1, 0.1, 0.1, {main: (1, 1, 0.1, 0.1)}),
    }
    by_package, unplaced = bench_trace.attribute(stats, root)
    assert by_package == pytest.approx(
        {"vpu": 1.2, "nn": 2.1, "repro": 0.1})
    assert unplaced == pytest.approx(0.4)
    assert bench_trace.package_of(numpy_py[0], root + os.sep) is None


def test_probes_count_span_and_are_removed():
    import repro.numerics.half as half
    import repro.numerics.quant as quant
    from repro.errors import DeviceTimeout
    from repro.numerics.quant import PrecisionPolicy

    original = quant.round_fp16
    tracer = bench_trace.Tracer()
    remove = bench_trace.install(tracer, (
        bench_trace.Probe("repro.numerics.half", "round_fp16",
                          count="rounds"),
        bench_trace.Probe("repro.numerics.quant",
                          "PrecisionPolicy.quantize_activation_array",
                          span="quantize"),
        bench_trace.Probe("repro.errors", "DeviceTimeout.__init__",
                          count="timeouts"),
    ))
    try:
        # Called through quant's own ``from ... import`` binding.
        PrecisionPolicy.fp16().quantize_activation_array([1.0, 2.0])
        DeviceTimeout("late")
    finally:
        remove()
    assert tracer.counts == {"rounds": 1, "timeouts": 1}
    assert [s.name for s in tracer.spans] == ["quantize"]
    assert quant.round_fp16 is original is half.round_fp16
    assert "__init__" not in vars(DeviceTimeout)


# -- the run loop ----------------------------------------------------------

class _Fake:
    """A workload double: ``bad`` makes every check fail, ``drift``
    changes the simulated statistics between repetitions."""

    name = "fake"
    reps_per_setup = 2

    def __init__(self, bad=False, drift=False):
        self.bad, self.drift, self.runs = bad, drift, 0

    def reset(self):
        pass

    def setup(self):
        return "state"

    def prepare(self, state):
        return state

    def run(self, prepared):
        self.runs += 1
        return self.runs

    def items(self, out):
        return 10

    def check(self, out):
        return ["wrong answer"] if self.bad else []

    def stats(self, out):
        return {"p99": out if self.drift else 1}


def test_measure_repeats_and_a_failing_check_fails_the_run():
    setups, reps, peak_mb, digest, _ = run.measure(_Fake(), seconds=0.05)
    assert len(reps) >= 2 and digest and peak_mb > 0
    assert len(setups) == (len(reps) + 1) // 2
    assert tally(reps) == (10 * len(reps), 0)

    _, reps, _, _, _ = run.measure(_Fake(bad=True), seconds=0.01)
    attempted, failed = tally(reps)
    assert failed == attempted > 0


def test_a_digest_change_between_repetitions_fails_the_run():
    _, reps, _, _, _ = run.measure(_Fake(drift=True), seconds=0.05)
    assert len(reps) >= 2
    assert any("digest" in f for r in reps for f in r.failures)


def test_benchmark_json_matches_what_the_runs_print():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} \
        == {"items_per_s", "setup_s", "peak_rss_mb"}


# -- tiny configurations, end to end ---------------------------------------

TINY = {
    "serve_mixed_kill": lambda: ServeMixedKill(1, requests=200,
                                               kill_at_s=1.5),
    "cluster_day_kill": lambda: ClusterDayKill(1, requests=300),
    "precision_subset": lambda: PrecisionSubset(1, scale="smoke"),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_measured_and_traced(name):
    workload = TINY[name]()
    setups, reps, _, digest, _ = run.measure(workload, seconds=0.01)
    assert all(r.ok for r in reps), [r.failures for r in reps]
    assert setups[0] > 0 and reps[0].items > 0

    metrics, reps, traced_digest, _ = run.traced(workload)
    assert all(r.ok for r in reps), [r.failures for r in reps]
    assert len(reps) == 2 * run.TRACE_PASSES
    assert traced_digest == digest
    assert set(metrics) == set(run.LAYER_METRICS)
    values = {k: v["value"] for k, v in metrics.items()}
    assert values["trace.overhead"] > 0
    assert values["sim.events"] > 0
    if name == "precision_subset":
        assert values["nn.forwards"] > 0 and values["harness.context_s"] > 0
    else:
        assert values["vpu.inferences"] > 0 and values["vpu.compile_s"] > 0
