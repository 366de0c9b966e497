"""Tests for the admission queue and the dynamic batcher.

These drive the serving building blocks directly on a bare
:class:`~repro.sim.core.Environment` with a stub target, so each case
pins one mechanism: admission policy, deadline enforcement, window
formation, dispatch backpressure.
"""

import pytest

from repro.errors import FrameworkError
from repro.ncsw.targets import TargetDevice
from repro.serve import (
    BLOCK,
    COMPLETED,
    REJECT_NEWEST,
    REJECTED,
    SHED,
    SHED_OLDEST,
    TIMED_OUT,
    AdmissionQueue,
    Backend,
    DynamicBatcher,
    Request,
    Router,
)
from repro.sim import Environment


class StubTarget(TargetDevice):
    """Fixed-latency target that records every batch it serves."""

    name = "stub"

    def __init__(self, service_s=0.01, preferred=4, env=None):
        self.service_s = service_s
        self.preferred = preferred
        self.batches = []
        self._env = env

    def prepare(self, env):
        self._env = env
        return env.timeout(0.0)

    @property
    def preferred_batch_size(self):
        return self.preferred

    def execute(self, items):
        yield self._env.timeout(self.service_s)
        self.batches.append([i.index for i in items])
        return [type("Rec", (), {"index": i.index})() for i in items]


def _request(i, t=0.0, deadline=None):
    return Request(request_id=i, arrival_time=t, deadline_at=deadline)


# -- admission queue --------------------------------------------------------

def test_queue_validation():
    env = Environment()
    with pytest.raises(FrameworkError):
        AdmissionQueue(env, depth=0)
    with pytest.raises(FrameworkError):
        AdmissionQueue(env, policy="drop-everything")


def test_reject_newest_turns_away_at_the_door():
    env = Environment()
    dropped = []
    q = AdmissionQueue(env, depth=2, policy=REJECT_NEWEST,
                       on_drop=dropped.append)

    def scenario():
        yield env.timeout(0)
        assert q.offer(_request(0)) is not None
        assert q.offer(_request(1)) is not None
        assert q.full
        late = _request(2)
        assert q.offer(late) is None
        assert late.status == REJECTED
        assert late.admitted_at is None  # never consumed queue time

    env.run(until=env.process(scenario()))
    assert q.rejected_count == 1
    assert q.shed_count == 0
    assert [r.request_id for r in dropped] == [2]
    assert len(q) == 2


def test_shed_oldest_evicts_head_for_newcomer():
    env = Environment()
    dropped = []
    q = AdmissionQueue(env, depth=2, policy=SHED_OLDEST,
                       on_drop=dropped.append)

    def scenario():
        yield env.timeout(0)
        first = _request(0)
        q.offer(first)
        q.offer(_request(1))
        newcomer = _request(2)
        assert q.offer(newcomer) is not None
        assert first.status == SHED
        assert newcomer.admitted_at == env.now
        # Queue now holds 1 and 2, in order.
        a = yield q.get()
        b = yield q.get()
        assert [a.request_id, b.request_id] == [1, 2]

    env.run(until=env.process(scenario()))
    assert q.shed_count == 1
    assert [r.request_id for r in dropped] == [0]


def test_block_policy_backpressures_the_put():
    env = Environment()
    q = AdmissionQueue(env, depth=1, policy=BLOCK)
    blocked = _request(1)

    def producer():
        yield env.timeout(0)
        q.offer(_request(0))
        put = q.offer(blocked)  # queue full: put pends
        assert not put.triggered
        assert blocked.admitted_at is None
        yield put
        # Admission stamped when the put finally landed, not at offer.
        assert blocked.admitted_at == pytest.approx(0.5)

    def consumer():
        yield env.timeout(0.5)
        req = yield q.get()
        assert req.request_id == 0

    env.process(producer())
    env.process(consumer())
    env.run()


def test_unbounded_queue_never_fires_policy():
    env = Environment()
    q = AdmissionQueue(env, depth=None, policy=REJECT_NEWEST)

    def scenario():
        yield env.timeout(0)
        for i in range(100):
            assert q.offer(_request(i)) is not None
        assert not q.full

    env.run(until=env.process(scenario()))
    assert q.rejected_count == 0
    assert len(q) == 100


def test_close_appends_poison_pill_after_work():
    env = Environment()
    q = AdmissionQueue(env)

    def scenario():
        yield env.timeout(0)
        q.offer(_request(0))
        q.close()
        assert len(q) == 1  # pill is not a queued request
        first = yield q.get()
        pill = yield q.get()
        assert first.request_id == 0
        assert pill is None

    env.run(until=env.process(scenario()))


# -- dynamic batcher --------------------------------------------------------

def _serving_rig(env, *, depth=None, policy=REJECT_NEWEST,
                 max_batch=None, max_wait=0.002, service_s=0.01,
                 preferred=4):
    """queue + single-stub-backend router + batcher, already started."""
    completed = []
    target = StubTarget(service_s=service_s, preferred=preferred,
                        env=env)
    queue = AdmissionQueue(env, depth=depth, policy=policy)
    backend = Backend(env, "stub", target)
    router = Router(env, [backend],
                    on_complete=completed.extend)
    batcher = DynamicBatcher(env, queue, router,
                             max_batch_size=max_batch,
                             max_wait_s=max_wait)
    router.start()
    batcher.run()
    return queue, router, batcher, target, completed


def test_batcher_validation():
    env = Environment()
    queue = AdmissionQueue(env)
    router = Router(env, [Backend(env, "s", StubTarget(env=env))])
    with pytest.raises(FrameworkError):
        DynamicBatcher(env, queue, router, max_batch_size=0)
    with pytest.raises(FrameworkError):
        DynamicBatcher(env, queue, router, max_wait_s=-1.0)


def test_idle_request_dispatches_alone_after_window():
    env = Environment()
    queue, router, batcher, target, completed = _serving_rig(
        env, max_wait=0.005)

    def scenario():
        yield env.timeout(0)
        queue.offer(_request(0))
        yield env.timeout(0.1)
        queue.close()

    env.run(until=env.process(scenario()))
    assert target.batches == [[0]]
    assert len(completed) == 1
    assert completed[0].status == COMPLETED
    # Dispatch waited out the window measured from the first request.
    assert completed[0].dispatched_at == pytest.approx(0.005)


def test_backlog_fills_batches_to_the_backend_hint():
    env = Environment()
    queue, router, batcher, target, completed = _serving_rig(
        env, preferred=4)

    def scenario():
        yield env.timeout(0)
        for i in range(8):
            queue.offer(_request(i))
        yield env.timeout(1.0)
        queue.close()

    env.run(until=env.process(scenario()))
    assert target.batches == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert all(r.batch_size == 4 for r in completed)
    assert batcher.batches_formed == 2


def test_explicit_max_batch_overrides_backend_hint():
    env = Environment()
    queue, router, batcher, target, completed = _serving_rig(
        env, max_batch=2, preferred=4)

    def scenario():
        yield env.timeout(0)
        for i in range(4):
            queue.offer(_request(i))
        yield env.timeout(1.0)
        queue.close()

    env.run(until=env.process(scenario()))
    assert target.batches == [[0, 1], [2, 3]]


def test_expired_deadline_resolves_timed_out_at_dequeue():
    env = Environment()
    timed_out = []
    target = StubTarget(env=env)
    queue = AdmissionQueue(env)
    router = Router(env, [Backend(env, "stub", target)])
    batcher = DynamicBatcher(env, queue, router,
                             on_timeout=timed_out.append)
    router.start()

    def scenario():
        yield env.timeout(0)
        # Already expired at dequeue time: the batcher starts late.
        queue.offer(_request(0, deadline=0.01))
        queue.offer(_request(1, deadline=10.0))
        yield env.timeout(0.05)
        batcher.run()
        yield env.timeout(0.5)
        queue.close()

    env.run(until=env.process(scenario()))
    assert batcher.timed_out_count == 1
    assert [r.request_id for r in timed_out] == [0]
    assert timed_out[0].status == TIMED_OUT
    # The live request still went through, never sharing a batch slot
    # with the expired one.
    assert target.batches == [[1]]


def test_dispatch_backpressure_keeps_backlog_in_admission_queue():
    # A slow backend with one dispatch slot: the batcher stalls on
    # dispatch, so overload accumulates where the policy can see it.
    env = Environment()
    queue, router, batcher, target, completed = _serving_rig(
        env, depth=2, policy=REJECT_NEWEST, service_s=1.0,
        preferred=1)

    def scenario():
        for i in range(8):
            queue.offer(_request(i, t=env.now))
            yield env.timeout(0.01)
        yield env.timeout(10.0)
        queue.close()

    env.run(until=env.process(scenario()))
    # One executing + one in the dispatch slot + one in the batcher's
    # hand + two queued; the rest turned away by the admission policy
    # rather than hidden in an unbounded buffer.
    assert queue.rejected_count == 3
    assert len(completed) == 5


def test_pill_inside_window_flushes_partial_batch():
    env = Environment()
    queue, router, batcher, target, completed = _serving_rig(
        env, preferred=8, max_wait=10.0)

    def scenario():
        yield env.timeout(0)
        queue.offer(_request(0))
        queue.offer(_request(1))
        queue.close()  # pill lands inside the open window
        yield env.timeout(1.0)

    env.run(until=env.process(scenario()))
    assert target.batches == [[0, 1]]
    assert len(completed) == 2
