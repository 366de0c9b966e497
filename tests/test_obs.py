"""Tests for the observability subsystem (repro.obs).

Covers the tracer's span algebra (well-nesting, epoch concatenation,
disabled no-ops), the metrics registry, the Chrome/Perfetto exporter
round-trip, and the end-to-end instrumented framework run — including
the zero-overhead guarantee that tracing off means byte-identical
benchmark results.
"""

import json

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.ncsw import IntelVPU, NCSw, SyntheticSource
from repro.nn import get_model
from repro.nn.weights import initialize_network
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    ObsSession,
    Tracer,
    TracerClock,
    device_utilisation,
    link_occupancy,
    to_chrome_trace,
    utilisation_report,
    write_chrome_trace,
)
from repro.sim import Environment


@pytest.fixture(scope="module")
def micro_graph():
    net = get_model("googlenet-micro")
    initialize_network(net)
    return compile_micro(net)


def compile_micro(net):
    from repro.vpu import compile_graph
    return compile_graph(net)


def _traced_run(micro_graph, devices=2, images=12, batch_size=4,
                session=None):
    """One synthetic VPU run with tracing on; returns (session, run)."""
    obs = session or ObsSession()
    fw = NCSw(obs=obs)
    fw.add_source("synth", SyntheticSource(images))
    fw.add_target("vpu", IntelVPU(graph=micro_graph,
                                  num_devices=devices,
                                  functional=False))
    run = fw.run("synth", "vpu", batch_size=batch_size)
    return obs, run


def assert_well_nested(tracer):
    """Every span tree must be well-nested: child ⊆ parent, and spans
    sharing a track are pairwise disjoint or nested."""
    end_of = {id(s): (s.end if s.end is not None else tracer.extent)
              for s in tracer.spans}
    for s in tracer.spans:
        if s.parent is not None:
            assert s.parent.track == s.track
            assert s.parent.start <= s.start
            assert end_of[id(s)] <= end_of[id(s.parent)] + 1e-12
    by_track = {}
    for s in tracer.spans:
        by_track.setdefault(s.track, []).append(s)
    for spans in by_track.values():
        for i, a in enumerate(spans):
            for b in spans[i + 1:]:
                a0, a1 = a.start, end_of[id(a)]
                b0, b1 = b.start, end_of[id(b)]
                disjoint = a1 <= b0 + 1e-12 or b1 <= a0 + 1e-12
                nested = ((a0 <= b0 and b1 <= a1 + 1e-12)
                          or (b0 <= a0 and a1 <= b1 + 1e-12))
                assert disjoint or nested, (
                    f"{a.name}@[{a0},{a1}] and {b.name}@[{b0},{b1}] "
                    f"overlap without nesting on track {a.track}")


# -- tracer ----------------------------------------------------------------

def test_span_stamped_with_simulated_time():
    env = Environment()
    tracer = Tracer()
    tracer.bind(env)

    def proc():
        with tracer.span("outer", track="t") as outer:
            yield env.timeout(2)
            with tracer.span("inner", track="t") as inner:
                yield env.timeout(3)
            assert inner.parent is outer
        yield env.timeout(1)

    env.process(proc())
    env.run()
    outer, = tracer.by_name("outer")
    inner, = tracer.by_name("inner")
    assert (outer.start, outer.end) == (0, 5)
    assert (inner.start, inner.end) == (2, 5)
    assert inner.duration == 3
    assert outer.finished and inner.finished
    assert tracer.tracks() == ["t"]


def test_random_span_trees_are_well_nested():
    # Property-style: drive a random fork/join workload and check the
    # nesting invariant on every track.
    rng = np.random.default_rng(1234)
    env = Environment()
    tracer = Tracer()
    tracer.bind(env)

    def worker(track, depth):
        with tracer.span(f"d{depth}", track=track):
            for _ in range(int(rng.integers(1, 4))):
                yield env.timeout(float(rng.uniform(0.1, 1.0)))
                if depth < 3 and rng.random() < 0.7:
                    yield from worker(track, depth + 1)
            yield env.timeout(float(rng.uniform(0.1, 1.0)))

    def actor(track):
        # One actor per track (spans on a track come from one logical
        # thread of control, as in the instrumented stack).
        for _ in range(4):
            yield from worker(track, 0)

    for k in range(4):
        env.process(actor(f"track{k}"))
    env.run()
    assert len(tracer) > 8
    assert all(s.finished for s in tracer)
    assert_well_nested(tracer)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    assert tracer.begin("x") is None
    tracer.end(None)          # tolerated
    tracer.instant("marker")
    with tracer.span("y"):
        pass
    assert len(tracer) == 0
    tracer.enable()
    tracer.end(tracer.begin("z"))
    assert len(tracer) == 1


def test_double_end_raises():
    tracer = Tracer()
    span = tracer.begin("once")
    tracer.end(span)
    with pytest.raises(ObservabilityError):
        tracer.end(span)


def test_busy_seconds_counts_top_level_only():
    env = Environment()
    tracer = Tracer()
    tracer.bind(env)

    def proc():
        with tracer.span("outer", track="t"):
            with tracer.span("inner", track="t"):
                yield env.timeout(4)

    env.process(proc())
    env.run()
    # Inner's 4 s is contained in outer's 4 s: occupancy is 4, not 8.
    assert tracer.busy_seconds("t") == pytest.approx(4.0)
    assert tracer.busy_seconds("t", name="inner") == 0.0


def test_rebind_concatenates_runs_on_one_timeline():
    tracer = Tracer()
    for expected_offset in (0.0, 5.0):
        env = Environment()
        tracer.bind(env)

        def proc():
            with tracer.span("run", track="host"):
                yield env.timeout(5)

        env.process(proc())
        env.run()
        span = tracer.by_name("run")[-1]
        assert span.start == pytest.approx(expected_offset)
        assert span.end == pytest.approx(expected_offset + 5)
    assert tracer.extent == pytest.approx(10.0)


# -- metrics ---------------------------------------------------------------

def test_counter_increments_and_rejects_negative():
    c = Counter("hits")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ObservabilityError):
        c.inc(-1)


def test_gauge_tracks_tracer_clock():
    env = Environment()
    tracer = Tracer()
    tracer.bind(env)
    g = Gauge("depth", TracerClock(tracer.now))

    def proc():
        g.set(0)
        yield env.timeout(4)
        g.set(10)
        yield env.timeout(4)
        g.set(10)  # touch the clock at t=8

    env.process(proc())
    env.run()
    assert g.last == 10
    assert g.samples[0] == (0, 0)
    assert g.time_average() == pytest.approx(5.0)
    assert g.maximum() == 10


def test_histogram_percentiles():
    h = Histogram("lat")
    for v in range(1, 101):
        h.observe(float(v))
    assert h.count == 100
    assert h.mean == pytest.approx(50.5)
    assert h.p50 == pytest.approx(np.percentile(range(1, 101), 50))
    assert h.p99 >= h.p95 >= h.p50
    empty = Histogram("none")
    with pytest.raises(ObservabilityError):
        _ = empty.p50


def test_registry_get_or_create_identity():
    session = ObsSession()
    reg = session.metrics
    assert reg.counter("a") is reg.counter("a")
    assert reg.gauge("b") is reg.gauge("b")
    assert reg.histogram("c") is reg.histogram("c")
    with pytest.raises(ObservabilityError):
        reg.gauge("a")  # name already taken by another kind


# -- perfetto export -------------------------------------------------------

def test_chrome_trace_round_trips_through_json(micro_graph):
    obs, _run = _traced_run(micro_graph, devices=2, images=8)
    doc = to_chrome_trace(obs)
    restored = json.loads(json.dumps(doc))
    events = restored["traceEvents"]
    assert restored["displayTimeUnit"] == "ms"

    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"ncs0", "ncs1", "ncs0/host", "host"} <= names

    xs = [e for e in events if e["ph"] == "X"]
    assert {"inference", "load_tensor", "get_result",
            "process_batch", "usb_transfer", "run"} <= {
                e["name"] for e in xs}
    for e in xs:
        assert e["pid"] == 1
        assert e["ts"] >= 0 and e["dur"] >= 0
        json.dumps(e["args"])  # args survived _json_safe

    # Exactly one X event per recorded span, microsecond-scaled.
    assert len(xs) == len(obs.tracer.spans)
    span0 = obs.tracer.spans[0]
    ev0 = xs[0]
    assert ev0["ts"] == pytest.approx(span0.start * 1e6)

    counters = [e for e in events if e["ph"] == "C"]
    assert counters, "gauge samples should export as counter events"


def test_write_chrome_trace_file(tmp_path, micro_graph):
    obs, _run = _traced_run(micro_graph, devices=1, images=4)
    path = write_chrome_trace(obs, tmp_path / "trace.json")
    data = json.loads(path.read_text())
    assert data["traceEvents"]


# -- instrumented framework runs -------------------------------------------

def test_traced_vpu_run_spans(micro_graph):
    obs, run = _traced_run(micro_graph, devices=2, images=12)
    tracer = obs.tracer
    assert run.images == 12
    # One inference span per image, split across both sticks.
    inf = tracer.by_name("inference")
    assert len(inf) == 12
    assert {s.track for s in inf} == {"ncs0", "ncs1"}
    # Host-side NCAPI call spans exist and pair up per image.
    assert len(tracer.by_name("load_tensor")) == 12
    assert len(tracer.by_name("get_result")) == 12
    assert len(tracer.by_name("usb_transfer")) >= 24  # in + out
    assert tracer.by_name("run") and tracer.by_name("process_batch")
    assert all(s.finished for s in tracer)
    assert_well_nested(tracer)


def test_busy_fraction_consistent_with_wall(micro_graph):
    obs, run = _traced_run(micro_graph, devices=2, images=16)
    table = device_utilisation(obs, run.wall_seconds)
    assert set(table) == {"ncs0", "ncs1"}
    for row in table.values():
        assert 0.0 < row["busy_fraction"] <= 1.0
        assert row["busy_fraction"] + row["idle_fraction"] == (
            pytest.approx(1.0))
        assert row["energy_joules"] > 0.0
        # 8 inferences of a known-duration graph per stick.
        assert row["inferences"] == 8
        assert row["busy_seconds"] == pytest.approx(
            8 * micro_graph.inference_seconds, rel=0.2)
    total_busy = sum(r["busy_seconds"] for r in table.values())
    assert total_busy <= 2 * run.wall_seconds
    assert link_occupancy(obs, run.wall_seconds)


def test_utilisation_report_renders(micro_graph):
    obs, run = _traced_run(micro_graph, devices=2, images=8)
    text = utilisation_report(obs, run.wall_seconds)
    assert "utilisation report" in text
    assert "ncs0" in text and "ncs1" in text
    assert "usb:" in text
    assert "sim.processes_started" in text
    assert "ncs.inference_seconds" in text


def test_tracing_off_is_byte_identical(micro_graph):
    """The zero-overhead guarantee: obs off changes no results."""
    def fingerprint(run):
        return (run.wall_seconds, run.batch_size,
                tuple((r.index, r.device, r.t_submit, r.t_complete)
                      for r in run.records))

    baseline = []
    for session in (None, ObsSession(enabled=False), ObsSession()):
        fw = NCSw(obs=session)
        fw.add_source("synth", SyntheticSource(12))
        fw.add_target("vpu", IntelVPU(graph=micro_graph,
                                      num_devices=2,
                                      functional=False))
        baseline.append(fingerprint(fw.run("synth", "vpu",
                                           batch_size=4)))
    assert baseline[0] == baseline[1] == baseline[2]


def test_disabled_session_attach_keeps_env_obs_none():
    session = ObsSession(enabled=False)
    env = Environment()
    session.attach(env)
    assert env.obs is None
    session.enable()
    session.attach(env)
    assert env.obs is session


def test_session_energy_accumulates_across_runs(micro_graph):
    session = ObsSession()
    _traced_run(micro_graph, devices=1, images=4, session=session)
    e1 = session.energy_joules("ncs0")
    _traced_run(micro_graph, devices=1, images=4, session=session)
    e2 = session.energy_joules("ncs0")
    assert 0.0 < e1 < e2
    assert session.energy_joules("nonexistent") == 0.0

def test_histogram_snapshot_freezes_a_window():
    h = Histogram("lat")
    for v in (1.0, 2.0, 3.0):
        h.observe(v)
    snap = h.snapshot()
    h.observe(100.0)
    # The snapshot is immune to later observations...
    assert snap.count == 3
    assert snap.mean == pytest.approx(2.0)
    assert snap.percentile(50) == pytest.approx(2.0)
    # ...while the live histogram keeps accumulating.
    assert h.count == 4
    assert "n=3" in repr(snap)


def test_histogram_reset_returns_the_dropped_window():
    h = Histogram("lat")
    for v in (5.0, 7.0):
        h.observe(v)
    warmup = h.reset()
    assert warmup.count == 2
    assert warmup.mean == pytest.approx(6.0)
    assert h.count == 0
    h.observe(1.0)
    assert h.p50 == pytest.approx(1.0)  # steady state only
    empty = Histogram("none").snapshot()
    assert empty.count == 0
    with pytest.raises(ObservabilityError):
        empty.percentile(50)
    with pytest.raises(ObservabilityError):
        _ = empty.mean


def test_serving_activity_orders_serve_counters():
    from repro.obs import serving_activity

    session = ObsSession()
    session.metrics.counter("serve.completed").inc(10)
    session.metrics.counter("serve.offered").inc(12)
    session.metrics.counter("serve.rejected").inc(2)
    session.metrics.counter("serve.zz_custom").inc(1)
    session.metrics.counter("other.counter").inc(5)
    session.metrics.counter("serve.shed")  # zero: excluded
    activity = serving_activity(session)
    assert list(activity) == ["serve.offered", "serve.completed",
                              "serve.rejected", "serve.zz_custom"]
    assert activity["serve.offered"] == 12
    assert "other.counter" not in activity


def test_utilisation_report_includes_serving_section(chaos_graph):
    from repro.ncsw import IntelVPU
    from repro.serve import InferenceServer, PoissonWorkload

    session = ObsSession()
    server = InferenceServer(obs=session, slo_seconds=0.050)
    server.add_target("vpu", IntelVPU(graph=chaos_graph,
                                      num_devices=2,
                                      functional=False))
    result = server.run(PoissonWorkload(200.0, seed=1), 40)
    assert result.completed == 40
    text = utilisation_report(session)
    assert "serving" in text
    assert "serve.offered" in text and "serve.completed" in text
    assert "serve.e2e_seconds" in text  # histogram table
    assert "ncs0" in text and "ncs1" in text


def test_rank_activity_groups_cluster_counters():
    from repro.obs import rank_activity

    session = ObsSession()
    session.metrics.counter("rank2.completed").inc(7)
    session.metrics.counter("rank1.completed").inc(5)
    session.metrics.counter("rank1.batches").inc(3)
    session.metrics.counter("serve.completed").inc(9)
    session.metrics.counter("rank1.empty")  # zero: excluded
    activity = rank_activity(session)
    assert list(activity) == ["rank1", "rank2"]
    assert activity["rank1"] == {"batches": 3.0, "completed": 5.0}
    assert activity["rank2"] == {"completed": 7.0}
    assert rank_activity(ObsSession()) == {}


def test_chrome_trace_groups_rank_tracks_into_processes():
    from repro.obs.perfetto import TRACE_PID, to_chrome_trace

    session = ObsSession()
    env = Environment()
    session.attach(env)
    span = session.tracer.begin("batch", track="rank2/batcher")
    session.tracer.end(span)
    span = session.tracer.begin("inference", track="ncs0")
    session.tracer.end(span)
    doc = to_chrome_trace(session)
    events = doc["traceEvents"]
    names = {e["pid"]: e["args"]["name"] for e in events
             if e["name"] == "process_name"}
    assert names[TRACE_PID] == "repro simulation"
    assert names[TRACE_PID + 2] == "rank 2"
    spans = {e["name"]: e["pid"] for e in events
             if e.get("ph") == "X"}
    assert spans["batch"] == TRACE_PID + 2
    assert spans["inference"] == TRACE_PID
    json.dumps(doc)  # still a valid trace document
