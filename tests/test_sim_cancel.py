"""Lazy-delete cancellation and fire order of the DES kernel.

The kernel is one binary heap keyed by ``(time, priority, seq)``.
The property test here drives randomized schedules — timeouts, store
puts/gets, cancels, exotic priorities, same-instant ties — and asserts
that same-program replay is identical and that events fire in exactly
ascending ``(time, priority, seq)`` order.  The compaction tests pin
the lazy-delete contract: cancelling most of a deep pending set keeps
the queue (and the store waiter lists) bounded instead of
accumulating tombstones.
"""

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import CANCELLED, Environment, Store
from repro.sim import core

#: One program step: (opcode, delay-in-eighths, operand).
_OP = st.tuples(st.integers(0, 6), st.integers(0, 24),
                st.integers(0, 5))


def _run_program(ops, fired=None):
    """Interpret *ops* on a fresh kernel; returns (trace, state).

    The trace appends one entry per fired waiter in callback order,
    so comparing traces compares the kernel's fire order exactly.
    When *fired* is a list the program is driven one
    :meth:`Environment.step` at a time.  Every heap push is numbered
    in call order, independently of the kernel's ``seq``; before each
    step the ``(time, priority, push number)`` key of the entry about
    to fire and the smallest such key over every pending entry are
    appended to *fired* as a pair.
    """
    env = Environment()
    store = Store(env, capacity=3)
    trace = []
    timeouts = []
    gets = []

    def waiter(tag, ev):
        value = yield ev
        trace.append((tag, round(env.now, 9), value))

    def driver():
        for i, (op, delay, operand) in enumerate(ops):
            d = delay / 8.0
            if op == 0:      # plain timeout (NORMAL priority)
                t = env.timeout(d, value=i)
                timeouts.append(t)
                env.process(waiter(f"t{i}", t))
            elif op == 1:    # now-event chain (URGENT priority)
                ev = env.event()
                env.process(waiter(f"u{i}", ev))
                ev.succeed(i)
            elif op == 2:    # store put (may pend when full)
                env.process(waiter(f"p{i}", store.put(i)))
            elif op == 3:    # store get (may pend when empty)
                g = store.get()
                gets.append(g)
                env.process(waiter(f"g{i}", g))
            elif op == 4:    # cancel an outstanding timeout
                if timeouts:
                    t = timeouts.pop(operand % len(timeouts))
                    if not t._processed:
                        env.cancel(t)
            elif op == 5:    # cancel an outstanding store get
                if gets:
                    store.cancel(gets.pop(operand % len(gets)))
            elif op == 6:    # exotic priority, behind NORMAL ties
                ev = env.event()
                ev._value = i
                ev._ok = True
                env.process(waiter(f"x{i}", ev))
                env.schedule(ev, priority=2 + operand, delay=d)
            if operand == 0 and d > 0.0:
                yield env.timeout(d / 2.0)   # advance the clock
        trace.append(("driver-done", round(env.now, 9), None))

    if fired is None:
        env.process(driver())
        env.run()
    else:
        pushed = {}
        numbers = count()
        heappush = core.heappush

        def numbered_push(queue, entry):
            pushed[id(entry[3])] = next(numbers)
            heappush(queue, entry)

        def key(entry):
            return entry[0], entry[1], pushed[id(entry[3])]

        core.heappush = numbered_push
        try:
            env.process(driver())
            while env._queue:
                fired.append((key(env._queue[0]),
                              min(map(key, env._queue))))
                env.step()
        finally:
            core.heappush = heappush
    state = (list(store.items), env._seq, round(env.now, 9),
             sum(1 for g in gets if g._value is CANCELLED))
    return trace, state


@settings(max_examples=60, deadline=None)
@given(st.lists(_OP, min_size=1, max_size=40))
def test_property_replay_identical_and_fire_order_ascending(ops):
    """Same program, same trace and state; every step fires the
    pending entry that is first by ``(time, priority)`` and then by
    scheduling order, so time never runs backwards and equal
    ``(time, priority)`` entries fire first-scheduled first."""
    trace, state = _run_program(ops)
    assert _run_program(ops) == (trace, state)
    fired = []
    assert _run_program(ops, fired) == (trace, state)
    keys = [key for key, _ in fired]
    assert all(key == smallest for key, smallest in fired)
    assert [t for t, _, _ in keys] == sorted(t for t, _, _ in keys)
    for a, b in zip(keys, keys[1:]):
        if a[:2] == b[:2]:
            assert a[2] < b[2]


def test_cancel_heavy_timeouts_stay_compacted():
    """The serve pattern — most deadline timers are cancelled by
    completion — must not accumulate tombstones in the queue."""
    env = Environment()
    fired = []

    def main():
        survivor = env.timeout(500.0, value="survivor")
        doomed = [env.timeout(100.0 + i * 1e-4) for i in range(5000)]
        for t in doomed:
            env.cancel(t)
        # Lazy delete compacts once tombstones outnumber live
        # entries: the 5000 cancelled timers must not linger.
        assert len(env._queue) < 100
        fired.append((yield survivor))

    env.run(until=env.process(main()))
    assert fired == ["survivor"]
    assert env.now == 500.0


def test_compaction_keeps_fire_order():
    """Survivors of a compaction still fire in time order."""
    env = Environment()
    fired = []

    def waiter(ev):
        fired.append((yield ev))

    timers = [env.timeout(1.0 + (i * 7919 % 1000) * 1e-3, value=i)
              for i in range(1000)]
    for i, timer in enumerate(timers):
        if i % 10:
            env.cancel(timer)
        else:
            env.process(waiter(timer))
    assert len(env._queue) < 300
    env.run()
    assert fired == sorted(range(0, 1000, 10),
                           key=lambda i: timers[i].delay)


def test_cancelled_timeout_never_fires():
    env = Environment()
    fired = []

    def waiter(ev):
        fired.append((yield ev))

    def main():
        doomed = env.timeout(1.0, value="doomed")
        env.process(waiter(doomed))
        yield env.timeout(0.5)   # the waiter is subscribed by now
        env.cancel(doomed)
        fired.append((yield env.timeout(2.0, value="kept")))
        env.cancel(doomed)       # double-cancel is a no-op

    env.run(until=env.process(main()))
    assert fired == ["kept"]


def test_cancel_heavy_store_gets_stay_compacted():
    """Store-side lazy delete: cancelled getters are tombstoned in
    O(1) and compacted away, and a cancelled get never steals."""
    env = Environment()
    store = Store(env)
    gets = [store.get() for _ in range(4000)]
    for g in gets[1:]:
        store.cancel(g)
    assert len(store._getters) < 100
    received = []

    def main():
        yield store.put("item")
        received.append(gets[0].value)

    env.run(until=env.process(main()))
    assert received == ["item"]
    assert all(g.value is CANCELLED for g in gets[1:])


def test_store_cancel_rejects_foreign_events():
    env = Environment()
    store = Store(env)
    with pytest.raises(SimulationError):
        store.cancel(env.event())


def test_far_future_and_past_events_fire_in_order():
    """Events scheduled far apart in time fire in time order, not
    scheduling order."""
    env = Environment()
    fired = []

    def waiter(tag, ev):
        yield ev
        fired.append((tag, env.now))

    env.process(waiter("near", env.timeout(0.001)))
    env.process(waiter("far", env.timeout(1e6)))
    env.process(waiter("mid", env.timeout(42.0)))
    env.run()
    assert fired == [("near", 0.001), ("mid", 42.0), ("far", 1e6)]


def test_timeout_at_fires_exactly_at_when():
    """The absolute time is used as given, not rebuilt as now + delay."""
    env = Environment(initial_time=0.1)
    when = 0.1 + 0.2 + 0.3   # != 0.1 + (0.2 + 0.3) in floating point
    assert when != 0.1 + (0.2 + 0.3)
    fired = []

    def waiter():
        fired.append((yield env.timeout_at(when, value="at")))
        fired.append(env.now)

    env.run(until=env.process(waiter()))
    assert fired == ["at", when]


def test_timeout_at_rejects_past_times():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.timeout_at(4.999)
    with pytest.raises(ValueError):
        env.timeout_at(float("nan"))
    env.timeout_at(5.0)   # the current instant is allowed


def test_timeout_at_ties_fire_in_scheduling_order():
    env = Environment()
    fired = []

    def waiter(tag, ev):
        yield ev
        fired.append(tag)

    env.process(waiter("relative", env.timeout(2.0)))
    env.process(waiter("absolute", env.timeout_at(2.0)))
    env.process(waiter("relative-late", env.timeout(2.0)))
    env.process(waiter("earlier", env.timeout_at(1.0)))
    env.run()
    assert fired == ["earlier", "relative", "absolute", "relative-late"]


def test_cancelled_timeout_at_never_fires():
    env = Environment()
    fired = []

    def waiter(ev):
        fired.append((yield ev))

    doomed = env.timeout_at(1.0, value="doomed")
    env.process(waiter(doomed))
    kept = env.timeout_at(2.0, value="kept")
    env.process(waiter(kept))
    env.run(until=0.5)
    env.cancel(doomed)
    env.run()
    assert fired == ["kept"]
    assert env.now == 2.0
