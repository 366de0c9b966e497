"""Tests for multi-backend routing and failure re-routing."""

import pytest

from repro.errors import FrameworkError
from repro.ncsw.targets import TargetDevice
from repro.serve import (
    ABANDONED,
    COMPLETED,
    LATENCY_EWMA,
    LEAST_OUTSTANDING,
    ROUND_ROBIN,
    Backend,
    Request,
    Router,
)
from repro.sim import Environment


class StubTarget(TargetDevice):
    """Configurable stub: fixed latency, optional partial service."""

    name = "stub"

    def __init__(self, env, service_s=0.01, serve_first=None,
                 alive=True):
        self._env = env
        self.service_s = service_s
        #: When set, only the first N items of each batch get records
        #: (the rest come back missing, as after a stick death).
        self.serve_first = serve_first
        self._alive = alive
        self.batches = []

    def prepare(self, env):
        self._env = env
        return env.timeout(0.0)

    @property
    def alive(self):
        return self._alive

    def kill(self):
        self._alive = False

    def execute(self, items):
        yield self._env.timeout(self.service_s)
        self.batches.append([i.index for i in items])
        keep = (items if self.serve_first is None
                else items[:self.serve_first])
        return [type("Rec", (), {"index": i.index})() for i in keep]


def _request(i):
    return Request(request_id=i, arrival_time=0.0)


def _rig(env, num_backends=3, policy=ROUND_ROBIN, max_redirects=1,
         **stub_kwargs):
    completed, abandoned = [], []
    backends = [Backend(env, f"b{i}", StubTarget(env, **stub_kwargs))
                for i in range(num_backends)]
    router = Router(env, backends, policy=policy,
                    max_redirects=max_redirects,
                    on_complete=completed.extend,
                    on_abandon=abandoned.append)
    router.start()
    return router, backends, completed, abandoned


def test_router_validation():
    env = Environment()
    with pytest.raises(FrameworkError):
        Router(env, [])
    backend = Backend(env, "b", StubTarget(env))
    with pytest.raises(FrameworkError):
        Router(env, [backend], policy="fastest")
    with pytest.raises(FrameworkError):
        Router(env, [backend], max_redirects=-1)
    with pytest.raises(FrameworkError):
        Router(env, [backend], ewma_alpha=0.0)
    with pytest.raises(FrameworkError):
        Backend(env, "b", StubTarget(env), max_pending_batches=0)


def test_round_robin_cycles_and_skips_dead():
    env = Environment()
    router, backends, _, _ = _rig(env, num_backends=3)
    picked = [router.next_backend().name for _ in range(4)]
    assert picked == ["b0", "b1", "b2", "b0"]
    backends[1].target.kill()
    picked = [router.next_backend().name for _ in range(4)]
    assert picked == ["b2", "b0", "b2", "b0"]


def test_peek_does_not_advance_the_rotation():
    env = Environment()
    router, _, _, _ = _rig(env, num_backends=2)
    assert router.peek_next().name == "b0"
    assert router.peek_next().name == "b0"
    assert router.next_backend().name == "b0"
    assert router.peek_next().name == "b1"


def test_least_outstanding_picks_the_emptiest():
    env = Environment()
    router, backends, _, _ = _rig(env, policy=LEAST_OUTSTANDING)
    backends[0].outstanding = 5
    backends[1].outstanding = 2
    backends[2].outstanding = 7
    assert router.next_backend().name == "b1"
    backends[1].outstanding = 9
    assert router.next_backend().name == "b0"


def test_latency_ewma_probes_unsampled_then_tracks_fastest():
    env = Environment()
    router, backends, _, _ = _rig(env, policy=LATENCY_EWMA)
    backends[0].ewma_latency = 0.050
    # b1 and b2 are unsampled: they get probed first, in order.
    assert router.next_backend().name == "b1"
    backends[1].ewma_latency = 0.020
    assert router.next_backend().name == "b2"
    backends[2].ewma_latency = 0.080
    assert router.next_backend().name == "b1"  # lowest EWMA


def test_dispatch_serves_and_updates_ewma():
    env = Environment()
    router, backends, completed, _ = _rig(env, num_backends=1,
                                          service_s=0.02)
    reqs = [_request(i) for i in range(2)]

    def scenario():
        yield router.dispatch(reqs)
        yield env.timeout(1.0)
        router.close()

    env.run(until=env.process(scenario()))
    assert [r.status for r in reqs] == [COMPLETED, COMPLETED]
    assert all(r.backend == "b0" for r in reqs)
    assert len(completed) == 2
    assert backends[0].served == 2
    assert backends[0].outstanding == 0
    # EWMA seeded with per-request time: 0.02 s / 2 requests.
    assert backends[0].ewma_latency == pytest.approx(0.01)


def test_dispatch_with_no_live_backend_abandons():
    env = Environment()
    router, backends, _, abandoned = _rig(env, num_backends=1)
    backends[0].target.kill()
    reqs = [_request(0), _request(1)]

    def scenario():
        yield router.dispatch(reqs)

    env.run(until=env.process(scenario()))
    assert router.abandoned_count == 2
    assert all(r.status == ABANDONED for r in reqs)
    assert [r.request_id for r in abandoned] == [0, 1]


def test_unserved_requests_reroute_to_survivor():
    env = Environment()
    completed, abandoned = [], []
    # b0 loses the tail of every batch (stick died mid-batch); b1 is
    # healthy and picks up the strays.
    broken = Backend(env, "b0", StubTarget(env, serve_first=1))
    healthy = Backend(env, "b1", StubTarget(env))
    router = Router(env, [broken, healthy], max_redirects=1,
                    on_complete=completed.extend,
                    on_abandon=abandoned.append)
    router.start()
    reqs = [_request(i) for i in range(3)]

    def scenario():
        yield router.dispatch(reqs)  # round-robin: lands on b0
        yield env.timeout(1.0)
        router.close()

    env.run(until=env.process(scenario()))
    assert [r.status for r in reqs] == [COMPLETED] * 3
    # The two strays crossed to b1 with one redirect each.
    assert reqs[0].redirects == 0 and reqs[0].backend == "b0"
    assert all(r.redirects == 1 and r.backend == "b1"
               for r in reqs[1:])
    assert not abandoned


def test_redirect_budget_exhaustion_abandons():
    env = Environment()
    abandoned = []
    # Every backend drops the whole batch; one redirect allowed.
    backends = [Backend(env, f"b{i}", StubTarget(env, serve_first=0))
                for i in range(2)]
    router = Router(env, backends, max_redirects=1,
                    on_abandon=abandoned.append)
    router.start()
    req = _request(0)

    def scenario():
        yield router.dispatch([req])
        yield env.timeout(1.0)
        router.close()

    env.run(until=env.process(scenario()))
    assert req.status == ABANDONED
    assert req.redirects == 1  # tried once, redirected once, gave up
    assert router.abandoned_count == 1
    assert [r.request_id for r in abandoned] == [0]


def test_backend_preferred_batch_size_comes_from_target():
    env = Environment()
    backend = Backend(env, "b", StubTarget(env))
    assert backend.preferred_batch_size == 8  # TargetDevice default


def test_partial_batch_ewma_averages_over_served_requests():
    """A backend that loses most of a batch must not report an
    optimistically low per-request latency (regression: the batch
    wall time was divided by the full batch size, so a degrading
    backend looked *faster* to latency-ewma routing)."""
    env = Environment()
    router, backends, completed, _ = _rig(env, num_backends=1,
                                          max_redirects=0,
                                          service_s=0.02,
                                          serve_first=1)
    reqs = [_request(i) for i in range(4)]

    def scenario():
        yield router.dispatch(reqs)
        yield env.timeout(1.0)
        router.close()

    env.run(until=env.process(scenario()))
    # One of four requests came back: 0.02 s of wall bought exactly
    # one completion, so the per-request estimate is 0.02, not 0.005.
    assert len(completed) == 1
    assert backends[0].ewma_latency == pytest.approx(0.02)


def test_halt_zeroes_outstanding_and_gauge():
    """Halting a backend mid-batch (host death) must zero both the
    outstanding counter and its gauge (regression: the Interrupt
    path returned without either, leaving a permanently non-zero
    gauge in timelines and the queue-depth-slope alert)."""
    from repro.obs import ObsSession

    env = ObsSession().attach(Environment())
    router, backends, _, _ = _rig(env, num_backends=1,
                                  service_s=0.05)
    reqs = [_request(i) for i in range(3)]

    def scenario():
        yield router.dispatch(reqs)
        yield env.timeout(0.01)  # batch is mid-service
        backends[0].halt()
        yield env.timeout(0.2)

    env.run(until=env.process(scenario()))
    assert backends[0].outstanding == 0
    gauge = env.obs.metrics.gauge("serve.outstanding.b0")
    assert gauge.last == 0.0
