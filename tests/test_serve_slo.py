"""Tests for ServeResult accounting, the SLO report, and the sweep.

The steady-state SLO statistics are shared by every serving result
(:class:`repro.serve.slo.SloStats`); the tests of those semantics run
over a ServeResult, a one-shard ClusterResult and a WorkflowResult.
"""

import pytest

from repro.cluster.result import ClusterResult, HostShard
from repro.errors import FlowError, FrameworkError
from repro.flow.result import WorkflowRequest, WorkflowResult
from repro.serve import (
    COMPLETED,
    REJECTED,
    Request,
    ServeResult,
    find_max_rate,
    render_slo_report,
    render_sweep_table,
)
from repro.serve.sweep import SweepResult

#: The result types sharing the SLO statistics, and what each one's
#: unanswerable questions raise.
KINDS = {"serve": FrameworkError, "cluster": FrameworkError,
         "workflow": FlowError}


def _completed_request(i, latency, arrival=0.0):
    req = Request(request_id=i, arrival_time=arrival)
    req.admitted_at = arrival
    req.dequeued_at = arrival + 0.1 * latency
    req.dispatched_at = arrival + 0.2 * latency
    req.completed_at = arrival + latency
    req.status = COMPLETED
    req.backend = "vpu"
    req.batch_size = 1
    return req


def _result(latencies, *, slo=None, wall=1.0, warmup=0, kind="serve",
            **losses):
    """A run whose completed requests took *latencies*, one arrival a
    second so that completion order (a cluster's warmup order) is
    arrival order, plus the dropped requests counted in *losses*."""
    from repro.serve import ABANDONED, SHED, TIMED_OUT

    reqs = [_completed_request(i, lat, arrival=float(i))
            for i, lat in enumerate(latencies)]
    drops = {"shed": 0, "rejected": 0, "timed_out": 0,
             "abandoned": 0}
    drops.update(losses)
    status_of = {"shed": SHED, "rejected": REJECTED,
                 "timed_out": TIMED_OUT, "abandoned": ABANDONED}
    for field, count in drops.items():
        for _ in range(count):
            dropped = Request(request_id=len(reqs),
                              arrival_time=0.0)
            dropped.status = status_of[field]
            reqs.append(dropped)
    if kind == "workflow":
        flows = [WorkflowRequest(request_id=r.request_id,
                                 arrival_time=r.arrival_time,
                                 status=r.status,
                                 completed_at=r.completed_at)
                 for r in reqs]
        return WorkflowResult(
            workflow="wf", offered=len(reqs),
            completed=len(latencies), wall_seconds=wall,
            slo_seconds=slo, requests=flows, warmup=warmup, **drops)
    serve = ServeResult(
        offered=len(reqs),
        completed=len(latencies), wall_seconds=wall,
        slo_seconds=slo, requests=reqs,
        warmup=warmup if kind == "serve" else 0, **drops)
    if kind == "serve":
        return serve
    return ClusterResult(
        offered=len(reqs),
        shards=[HostShard(rank=1, name="host0", result=serve)],
        wall_seconds=wall, slo_seconds=slo, warmup=warmup)


# -- constructor invariants -------------------------------------------------

def test_accounting_invariant_is_enforced():
    with pytest.raises(FrameworkError):
        ServeResult(offered=10, completed=5, shed=1, rejected=0,
                    timed_out=0, abandoned=0, wall_seconds=1.0)


def test_status_tally_cross_check():
    # A request claiming REJECTED while the tally says completed-only.
    req = _completed_request(0, 0.1)
    req.status = REJECTED
    with pytest.raises(FrameworkError):
        ServeResult(offered=1, completed=1, shed=0, rejected=0,
                    timed_out=0, abandoned=0, wall_seconds=1.0,
                    requests=[req])


def test_negative_warmup_rejected():
    with pytest.raises(FrameworkError):
        ServeResult(offered=0, completed=0, shed=0, rejected=0,
                    timed_out=0, abandoned=0, wall_seconds=1.0,
                    warmup=-1)


# -- percentiles and rates --------------------------------------------------

def test_percentiles_and_mean():
    r = _result([0.010 * (i + 1) for i in range(100)])
    assert r.p50 == pytest.approx(0.505, rel=0.01)
    assert r.p99 >= r.p95 >= r.p50
    assert r.mean_latency == pytest.approx(0.505)


@pytest.mark.parametrize("kind", KINDS)
def test_empty_percentiles_raise_value_error(kind):
    r = _result([], rejected=3, kind=kind)
    with pytest.raises(ValueError):
        r.latency_percentile(99)
    with pytest.raises(ValueError):
        _ = r.mean_latency
    noun = "workflows" if kind == "workflow" else "requests"
    assert r.summary().endswith(f", no completed {noun}")


def test_warmup_excludes_cold_start_from_stats():
    # Two cold 1 s outliers, then forty 10 ms steady-state requests.
    r = _result([1.0, 1.0] + [0.010] * 40, warmup=2)
    assert r.p99 == pytest.approx(0.010)
    assert len(r.e2e_latencies()) == 40
    full = _result([1.0, 1.0] + [0.010] * 40)
    assert full.p99 > 0.5


@pytest.mark.parametrize("kind", KINDS)
def test_warmup_trims_attainment_and_goodput_like_percentiles(kind):
    # Regression: slo_attainment and goodput used to recount every
    # completed request while the percentiles trimmed warmup, so a
    # cold-start outlier dragged attainment below 1.0 even when the
    # reported p99 sat inside the SLO.  All three must judge the same
    # steady-state view.
    r = _result([1.0, 1.0] + [0.010] * 40, slo=0.050, wall=2.0,
                warmup=2, kind=kind)
    assert r.p99 <= 0.050
    assert r.slo_attainment == pytest.approx(1.0)
    assert r.goodput == pytest.approx(40 / 2.0)
    # Without warmup the outliers count everywhere, consistently.
    full = _result([1.0, 1.0] + [0.010] * 40, slo=0.050, wall=2.0,
                   kind=kind)
    assert full.slo_attainment == pytest.approx(40 / 42)
    assert full.goodput == pytest.approx(40 / 2.0)


def test_stage_latencies_and_validation():
    r = _result([0.1, 0.2])
    assert len(r.stage_latencies("queue_wait")) == 2
    assert len(r.stage_latencies("batch_wait")) == 2
    assert len(r.stage_latencies("service")) == 2
    with pytest.raises(FrameworkError):
        r.stage_latencies("transmogrify")


@pytest.mark.parametrize("kind", KINDS)
def test_throughput_goodput_and_slo(kind):
    # 8 fast + 2 slow vs a 50 ms SLO over 2 s of wall time.
    r = _result([0.010] * 8 + [0.100] * 2, slo=0.050, wall=2.0,
                kind=kind)
    assert r.throughput == pytest.approx(5.0)
    assert r.slo_attainment == pytest.approx(0.8)
    assert r.goodput == pytest.approx(4.0)
    assert r.loss_rate == 0.0
    assert not r.slo_met  # p99 rides the 100 ms stragglers
    idle = _result([0.010], slo=0.050, wall=0.0, kind=kind)
    for rate in ("throughput", "goodput"):
        with pytest.raises(KINDS[kind]):
            getattr(idle, rate)


@pytest.mark.parametrize("kind", KINDS)
def test_slo_met_requires_no_loss(kind):
    fast_but_lossy = _result([0.010] * 9, slo=0.050, rejected=1,
                             kind=kind)
    assert fast_but_lossy.p99 < 0.050
    assert not fast_but_lossy.slo_met
    clean = _result([0.010] * 9, slo=0.050, kind=kind)
    assert clean.slo_met
    no_slo = _result([0.010], kind=kind)
    with pytest.raises(KINDS[kind]):
        _ = no_slo.slo_met


def test_degraded_and_loss_rate():
    r = _result([0.01] * 3, abandoned=1)
    assert r.degraded
    assert r.loss_rate == pytest.approx(0.25)
    assert not _result([0.01]).degraded


def test_summary_lines():
    r = _result([0.010] * 10, slo=0.050, shed=2, timed_out=1)
    s = r.summary()
    assert "10/13 requests" in s
    assert "2 shed" in s and "1 timed out" in s
    # Losses alone break sustainability, even with fast latencies.
    assert "p99" in s and "MISSED" in s
    assert "met" in _result([0.010] * 5, slo=0.050).summary()


def test_per_backend_counts():
    reqs = [_completed_request(i, 0.01) for i in range(4)]
    reqs[3].backend = "cpu"
    r = ServeResult(offered=4, completed=4, shed=0, rejected=0,
                    timed_out=0, abandoned=0, wall_seconds=1.0,
                    requests=reqs)
    assert r.per_backend_counts() == {"vpu": 3, "cpu": 1}


# -- report rendering -------------------------------------------------------

def test_slo_report_renders_all_sections():
    r = _result([0.010] * 20, slo=0.050, rejected=2, wall=0.5,
                warmup=0)
    text = render_slo_report(r, workload="poisson @ 40 req/s")
    assert "workload       : poisson @ 40 req/s" in text
    assert "offered        : 22 requests" in text
    assert "rejected       : 2" in text
    assert "queue wait" in text and "service" in text
    # p99 is within the SLO, but two requests were rejected.
    assert "SLO p99 <= 50 ms : MISSED (p99 10.00 ms" in text
    assert "goodput" in text
    assert "vpu" in text  # per-backend table


def test_slo_report_verdict_agrees_with_slo_met():
    lossy = _result([0.010] * 10, slo=0.05, shed=2)
    assert "SLO p99 <= 50 ms : MISSED (p99 10.00 ms" in \
        render_slo_report(lossy)
    assert not lossy.slo_met and lossy.summary().endswith("(MISSED)")
    clean = _result([0.010] * 10, slo=0.05)
    assert "SLO p99 <= 50 ms : MET (p99 10.00 ms" in \
        render_slo_report(clean)
    assert clean.slo_met


def test_slo_report_is_deterministic():
    r = _result([0.012, 0.034, 0.026], slo=0.050)
    assert render_slo_report(r) == render_slo_report(r)


def test_slo_report_with_nothing_completed():
    r = _result([], slo=0.050, rejected=5)
    text = render_slo_report(r)
    assert "UNDEFINED" in text


# -- load sweep -------------------------------------------------------------

def _fake_service(capacity):
    """run_at stub: sustainable strictly below *capacity* req/s."""

    def run_at(rate):
        ok = rate <= capacity
        return _result([0.010] * 10 if ok else [0.900] * 10,
                       slo=0.050)

    return run_at


def test_find_max_rate_bisection_converges():
    sweep = find_max_rate(_fake_service(100.0), slo_seconds=0.050,
                          hi=400.0, steps=12, label="vpu1")
    assert sweep.max_rate == pytest.approx(100.0, rel=0.01)
    assert any(p.sustainable for p in sweep.points)
    assert any(not p.sustainable for p in sweep.points)
    assert "vpu1" in sweep.summary()


def test_find_max_rate_doubles_out_of_a_low_bracket():
    # hi underestimates capacity: the bracket doubles outward first.
    sweep = find_max_rate(_fake_service(300.0), slo_seconds=0.050,
                          hi=100.0, steps=10)
    assert sweep.max_rate == pytest.approx(300.0, rel=0.02)


def test_find_max_rate_validation():
    with pytest.raises(FrameworkError):
        find_max_rate(_fake_service(1.0), slo_seconds=0.0, hi=10.0)
    with pytest.raises(FrameworkError):
        find_max_rate(_fake_service(1.0), slo_seconds=0.1, hi=0.0)
    with pytest.raises(FrameworkError):
        find_max_rate(_fake_service(1.0), slo_seconds=0.1, hi=10.0,
                      steps=0)


def test_find_max_rate_unsustainable_everywhere_reports_zero():
    # Regression: with lo > 0 and every probe unsustainable, the
    # sweep used to report the never-probed lo as the sustainable
    # floor.  Now it demonstrates lo with a probe — and when even lo
    # fails, the honest answer is 0.
    sweep = find_max_rate(_fake_service(10.0), slo_seconds=0.050,
                          hi=1000.0, lo=50.0, steps=4)
    assert sweep.max_rate == 0.0
    assert any(p.rate == pytest.approx(50.0) for p in sweep.points)
    assert all(not p.sustainable for p in sweep.points)


def test_find_max_rate_probes_an_untouched_lo():
    # lo is sustainable but the bisection never lands on it: the
    # result must come from a demonstrated probe, not a bracket edge.
    sweep = find_max_rate(_fake_service(60.0), slo_seconds=0.050,
                          hi=1000.0, lo=50.0, steps=1)
    assert sweep.max_rate == pytest.approx(50.0)
    assert any(p.rate == pytest.approx(50.0) and p.sustainable
               for p in sweep.points)


def test_render_sweep_table_rejects_mixed_slos():
    # Regression: the table header states one SLO but each row used
    # to be judged against its own; mixed inputs now fail loudly.
    results = [
        SweepResult(label="a", max_rate=10.0, slo_seconds=0.05,
                    points=[]),
        SweepResult(label="b", max_rate=20.0, slo_seconds=0.10,
                    points=[]),
    ]
    with pytest.raises(FrameworkError):
        render_sweep_table(results)


def test_render_sweep_table_scaling_column():
    results = [
        SweepResult(label="vpu1", max_rate=100.0, slo_seconds=0.05,
                    points=[]),
        SweepResult(label="vpu4", max_rate=390.0, slo_seconds=0.05,
                    points=[]),
    ]
    text = render_sweep_table(results)
    assert "vpu1" in text and "vpu4" in text
    assert "1.00x" in text and "3.90x" in text
    assert render_sweep_table([]) == "load sweep: no results"
