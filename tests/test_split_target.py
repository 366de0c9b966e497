"""Tests for the pipelined two-tier serving target."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.weights import initialize_network
from repro.nn.zoo import get_model
from repro.ncsw.sources import WorkItem
from repro.obs import ObsSession
from repro.serve import InferenceServer, PoissonWorkload
from repro.serve.report import render_slo_report
from repro.sim.core import Environment
from repro.split import SplitPlanner, SplitTarget, build_split_target
from repro.vpu.compiler.compile import compile_graph


@pytest.fixture(scope="module")
def micro():
    net = get_model("googlenet-micro")
    initialize_network(net, seed=0)
    return net


@pytest.fixture(scope="module")
def micro_graph(micro):
    return compile_graph(micro)


def _items(n, net=None, seed=3):
    tensors = [None] * n
    if net is not None:
        rng = np.random.default_rng(seed)
        s = net.input_shape
        tensors = list(rng.standard_normal(
            (n, s.c, s.h, s.w)).astype(np.float32))
    return [WorkItem(index=i, image_id=i, label=None,
                     tensor=tensors[i]) for i in range(n)]


def _run_batch(target, items):
    env = Environment()
    out = {}

    def scenario():
        yield target.prepare(env)
        out["t0"] = env.now
        out["records"] = yield env.process(target.execute(items))
        out["t1"] = env.now

    env.process(scenario())
    env.run()
    return out


# -- pipelining -------------------------------------------------------------

def test_makespan_is_latency_plus_bottleneck_steps(micro, micro_graph):
    """Deterministic tandem pipeline with unit-capacity stages:
    N requests finish in latency + (N-1) * bottleneck, not N * latency
    — the front half of request k+1 overlaps the back half of k."""
    target = build_split_target(micro, graph=micro_graph,
                                front="vpu", back="cpu",
                                num_sticks=1, functional=False)
    plan = target.plan
    n = 6
    out = _run_batch(target, _items(n))
    makespan = out["t1"] - out["t0"]
    expected = (plan.latency_seconds
                + (n - 1) * plan.bottleneck_seconds)
    assert makespan == pytest.approx(expected, rel=1e-9)
    assert makespan < n * plan.latency_seconds


def test_more_sticks_shorten_the_front_stage(micro, micro_graph):
    n = 8
    makespans = {}
    for sticks in (1, 4):
        target = build_split_target(micro, graph=micro_graph,
                                    front="vpu", back="cpu",
                                    num_sticks=sticks,
                                    functional=False)
        out = _run_batch(target, _items(n))
        makespans[sticks] = out["t1"] - out["t0"]
    assert makespans[4] < makespans[1]


def test_records_carry_per_item_completion_times(micro, micro_graph):
    target = build_split_target(micro, graph=micro_graph,
                                functional=False)
    out = _run_batch(target, _items(5))
    records = out["records"]
    assert len(records) == 5
    assert [r.index for r in records] == list(range(5))
    completions = [r.t_complete for r in records]
    # Unit-capacity FIFO stages: items complete in order, spaced by
    # the bottleneck stage, never all at the batch end.
    assert completions == sorted(completions)
    assert len(set(completions)) == 5
    for r in records:
        assert r.device == target.name
        assert r.t_submit == out["t0"]


# -- functional correctness -------------------------------------------------

@pytest.mark.parametrize("front,back", [("vpu", "cpu"), ("cpu", "vpu")],
                         ids=["vpu-front", "vpu-back"])
def test_predictions_match_monolithic_equivalent_policy(
        micro, micro_graph, front, back):
    """The target's records must reproduce the monolithic forward
    under its advertised equivalent policy, bit for bit."""
    target = build_split_target(micro, graph=micro_graph, front=front,
                                back=back, num_sticks=1,
                                functional=True)
    items = _items(4, net=micro)
    out = _run_batch(target, items)
    x = np.stack([i.tensor for i in items])
    probs = micro.forward(x, target.equivalent_policy).reshape(4, -1)
    for pos, record in enumerate(out["records"]):
        assert record.predicted == int(probs[pos].argmax())
        assert record.confidence == float(probs[pos].max())


# -- serving integration ----------------------------------------------------

def _serve(micro, micro_graph, obs=None):
    server = InferenceServer(slo_seconds=60.0, obs=obs)
    server.add_target("vpu2+cpu", build_split_target(
        micro, graph=micro_graph, front="vpu", back="cpu",
        num_sticks=2, functional=False))
    return server.run(PoissonWorkload(rate=200.0, seed=11), 50)


def test_serves_through_the_inference_server(micro, micro_graph):
    result = _serve(micro, micro_graph)
    assert result.offered == 50
    assert result.completed == 50


def test_report_is_byte_identical_with_obs_on(micro, micro_graph):
    """The zero-cost observability contract extends to split targets:
    instrumentation must not move the simulated clock."""
    off = render_slo_report(_serve(micro, micro_graph))
    on = render_slo_report(_serve(micro, micro_graph,
                                  obs=ObsSession()))
    assert on == off


def test_obs_emits_split_spans_and_hops(micro, micro_graph):
    obs = ObsSession()
    _serve(micro, micro_graph, obs=obs)
    tracks = {s.track for s in obs.tracer.spans}
    assert any(t.endswith("/front") for t in tracks)
    assert any(t.endswith("/back") for t in tracks)
    stages = {h.stage for t in obs.reqtrace.traces() for h in t.hops}
    assert {"split_front_done", "split_xfer_done",
            "device_done"} <= stages
