"""Unit tests for the DES kernel core (events, processes, clock)."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Environment, Interrupt


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.5)

    env.process(proc())
    env.run()
    assert env.now == 3.5


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_sequential_timeouts_accumulate():
    env = Environment()
    marks = []

    def proc():
        yield env.timeout(1)
        marks.append(env.now)
        yield env.timeout(2)
        marks.append(env.now)

    env.process(proc())
    env.run()
    assert marks == [1, 3]


def test_process_return_value_via_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_run_until_time_stops_early():
    env = Environment()
    marks = []

    def proc():
        for _ in range(10):
            yield env.timeout(1)
            marks.append(env.now)

    env.process(proc())
    env.run(until=4.5)
    assert env.now == 4.5
    assert marks == [1, 2, 3, 4]


def test_run_until_past_raises():
    env = Environment()

    def proc():
        yield env.timeout(10)

    env.process(proc())
    env.run()
    with pytest.raises(ValueError):
        env.run(until=5)


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1)
        order.append(name)

    env.process(proc("a"))
    env.process(proc("b"))
    env.process(proc("c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_determinism_two_runs_identical():
    def build():
        env = Environment()
        trace = []

        def worker(name, period):
            while env.now < 10:
                yield env.timeout(period)
                trace.append((env.now, name))

        env.process(worker("x", 1.5))
        env.process(worker("y", 2.0))
        env.run(until=10)
        return trace

    assert build() == build()


def test_process_waits_on_process():
    env = Environment()
    log = []

    def child():
        yield env.timeout(2)
        log.append("child")
        return "done"

    def parent():
        result = yield env.process(child())
        log.append(f"parent:{result}")

    env.process(parent())
    env.run()
    assert log == ["child", "parent:done"]


def test_event_manual_succeed():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield ev))

    def firer():
        yield env.timeout(1)
        ev.succeed(99)

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == [99]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    caught = []

    def waiter(ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = env.event()
    env.process(waiter(ev))

    def firer():
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    env.process(firer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_in_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("oops")

    env.process(bad())
    with pytest.raises(ValueError, match="oops"):
        env.run()


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 123

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_all_of_waits_for_every_event():
    env = Environment()
    done_at = []

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        result = yield env.all_of([t1, t2])
        done_at.append(env.now)
        assert set(result.values()) == {"a", "b"}

    env.process(proc())
    env.run()
    assert done_at == [5]


def test_any_of_fires_on_first():
    env = Environment()
    done_at = []

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = yield env.any_of([t1, t2])
        done_at.append(env.now)
        assert "fast" in result.values()

    env.process(proc())
    env.run()
    assert done_at == [1]


def test_and_operator():
    env = Environment()
    done_at = []

    def proc():
        yield env.timeout(2) & env.timeout(3)
        done_at.append(env.now)

    env.process(proc())
    env.run()
    assert done_at == [3]


def test_or_operator():
    env = Environment()
    done_at = []

    def proc():
        yield env.timeout(2) | env.timeout(3)
        done_at.append(env.now)

    env.process(proc())
    env.run()
    assert done_at == [2]


def test_interrupt_raises_in_target():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
            log.append("slept")
        except Interrupt as i:
            log.append((env.now, f"interrupted:{i.cause}"))

    def interrupter(target):
        yield env.timeout(1)
        target.interrupt("wakeup")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    # Interrupted at t=1, never resumed by the stale timeout.
    assert log == [(1, "interrupted:wakeup")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_step_on_empty_queue_raises_deadlock():
    env = Environment()
    with pytest.raises(DeadlockError):
        env.step()


def test_run_until_event_never_fires_deadlocks():
    env = Environment()
    ev = env.event()

    def proc():
        yield env.timeout(1)

    env.process(proc())
    with pytest.raises(DeadlockError):
        env.run(until=ev)


def test_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(5)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_nested_process_exception_propagates_to_parent():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1)
        raise KeyError("inner")

    def parent():
        try:
            yield env.process(child())
        except KeyError:
            caught.append("got it")

    env.process(parent())
    env.run()
    assert caught == ["got it"]
