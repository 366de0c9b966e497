"""Unit tests for Monitor time-series probes and TraceRecorder."""

import math
import random

import pytest

from repro.sim import Environment, Monitor, TraceRecorder
from repro.sim.monitor import RollingP99


def _advance(env, t):
    def proc():
        yield env.timeout(t)
    env.process(proc())
    env.run()


def test_monitor_empty():
    env = Environment()
    m = Monitor(env)
    assert len(m) == 0
    assert m.last == 0.0
    assert m.time_average() == 0.0
    assert m.integral() == 0.0
    assert m.maximum() == 0.0


def test_monitor_records_time_and_value():
    env = Environment()
    m = Monitor(env, name="queue")

    def proc():
        m.record(1)
        yield env.timeout(2)
        m.record(3)

    env.process(proc())
    env.run()
    assert m.times == [0, 2]
    assert m.values == [1, 3]
    assert m.last == 3


def test_monitor_time_average_piecewise():
    env = Environment()
    m = Monitor(env)

    def proc():
        m.record(0)          # value 0 on [0, 4)
        yield env.timeout(4)
        m.record(10)         # value 10 on [4, 8)
        yield env.timeout(4)

    env.process(proc())
    env.run()
    # average = (0*4 + 10*4) / 8 = 5
    assert m.time_average() == pytest.approx(5.0)


def test_monitor_integral_power_to_energy():
    env = Environment()
    power = Monitor(env)

    def proc():
        power.record(2.5)     # 2.5 W on [0, 10)
        yield env.timeout(10)
        power.record(0.9)     # 0.9 W on [10, 20)
        yield env.timeout(10)

    env.process(proc())
    env.run()
    assert power.integral() == pytest.approx(2.5 * 10 + 0.9 * 10)


def test_monitor_integral_until():
    env = Environment()
    m = Monitor(env)

    def proc():
        m.record(4)
        yield env.timeout(10)

    env.process(proc())
    env.run()
    assert m.integral(until=3) == pytest.approx(12)


def test_monitor_maximum():
    env = Environment()
    m = Monitor(env)
    m.record(1)
    m.record(9)
    m.record(4)
    assert m.maximum() == 9


def test_monitor_until_before_first_sample():
    env = Environment()
    m = Monitor(env)

    def proc():
        yield env.timeout(5)
        m.record(10)          # first sample only at t=5
        yield env.timeout(5)

    env.process(proc())
    env.run()
    # A window that ends strictly before any sample holds no signal.
    assert m.time_average(until=3) == 0.0
    assert m.integral(until=3) == 0.0
    # At exactly the first sample time the zero-duration fallback
    # still reports the sample value (consistent with single-sample).
    assert m.time_average(until=5) == 10
    assert m.integral(until=5) == 0.0


def test_monitor_single_sample_average():
    env = Environment()
    m = Monitor(env)
    m.record(7)
    # No duration elapsed -> average falls back to the sample value.
    assert m.time_average() == 7


def test_trace_recorder_emit_and_query():
    env = Environment()
    tr = TraceRecorder(env)

    def proc():
        tr.emit("vpu0", "load_tensor", nbytes=1000)
        yield env.timeout(1)
        tr.emit("vpu0", "get_result")
        tr.emit("vpu1", "load_tensor", nbytes=500)

    env.process(proc())
    env.run()
    assert len(tr) == 3
    loads = [e for e in tr.events if e.action == "load_tensor"]
    assert len(loads) == 2
    assert loads[0].time == 0 and loads[0].detail["nbytes"] == 1000
    assert len([e for e in tr.events if e.actor == "vpu0"]) == 2


def test_trace_recorder_disable():
    env = Environment()
    tr = TraceRecorder(env)
    tr.disable()
    assert not tr.enabled
    tr.emit("x", "y")
    assert len(tr) == 0
    tr.enable()
    tr.emit("x", "y")
    assert len(tr) == 1


def test_trace_recorder_enabled_attribute_deprecated():
    env = Environment()
    tr = TraceRecorder(env)
    # Direct attribute pokes still work but warn.
    with pytest.deprecated_call():
        tr.enabled = False
    tr.emit("x", "y")
    assert len(tr) == 0
    with pytest.deprecated_call():
        tr.enabled = True
    tr.emit("x", "y")
    assert len(tr) == 1


def test_trace_events_are_frozen():
    env = Environment()
    tr = TraceRecorder(env)
    tr.emit("a", "b")
    ev = tr.events[0]
    with pytest.raises(AttributeError):
        ev.time = 99


def test_rolling_p99_is_the_nearest_rank_of_the_last_samples():
    rng = random.Random(5)
    for size in (1, 3, 64):
        window = RollingP99(size)
        assert window.p99() is None
        seen = []
        for _ in range(300):
            # Few distinct values, so evictions hit duplicates.
            value = rng.choice([0.5, 1.25, 2.0, rng.random()])
            window.append(value)
            seen.append(value)
            last = sorted(seen[-size:])
            assert window.p99() == last[max(
                0, math.ceil(0.99 * len(last)) - 1)]
        window.clear()
        assert window.p99() is None
