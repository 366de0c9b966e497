"""Tests for the miniature MPI substrate."""

import pytest

from repro.errors import SimulationError
from repro.mpi import Communicator, StreamWindow
from repro.sim import Environment


def test_communicator_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Communicator(env, 0)
    with pytest.raises(SimulationError):
        Communicator(env, 2, bandwidth=0)
    comm = Communicator(env, 2)
    with pytest.raises(SimulationError, match="dest 5 out of range"):
        StreamWindow(comm, 0, 5)
    with pytest.raises(SimulationError, match="source -1 out of range"):
        StreamWindow(comm, -1, 1)


def test_transfer_time_scales_with_bytes():
    env = Environment()
    comm = Communicator(env, 2)
    small = comm.transfer_seconds(1000)
    large = comm.transfer_seconds(4_000_000_000)
    assert large == pytest.approx(1.0, rel=0.01)
    assert small < large


# --- stream window ----------------------------------------------------------------

def test_stream_validation():
    env = Environment()
    comm = Communicator(env, 2)
    with pytest.raises(SimulationError):
        StreamWindow(comm, 0, 0)
    with pytest.raises(SimulationError):
        StreamWindow(comm, 0, 1, window=0)


def test_stream_push_pop_order():
    env = Environment()
    comm = Communicator(env, 2)
    stream = StreamWindow(comm, 0, 1)
    got = []

    def producer():
        for i in range(4):
            yield stream.push(i)
        yield stream.close()

    def consumer():
        while True:
            item = yield stream.pop()
            if item is None:
                break
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [0, 1, 2, 3]
    assert stream.pushed == 4 and stream.popped == 4


def test_stream_backpressure():
    env = Environment()
    comm = Communicator(env, 2)
    stream = StreamWindow(comm, 0, 1, window=2)
    push_times = []

    def producer():
        for i in range(4):
            yield stream.push(i)
            push_times.append(env.now)
        yield stream.close()

    def consumer():
        yield env.timeout(10.0)
        while True:
            item = yield stream.pop()
            if item is None:
                break

    env.process(producer())
    env.process(consumer())
    env.run()
    # First two pushes fill the window immediately; later pushes wait
    # for the consumer to start draining at t=10.
    assert push_times[1] < 1.0
    assert push_times[2] >= 10.0


def test_stream_eos_persists():
    env = Environment()
    comm = Communicator(env, 2)
    stream = StreamWindow(comm, 0, 1)
    got = []

    def proc():
        yield stream.close()
        got.append((yield stream.pop()))
        got.append((yield stream.pop()))  # still EOS

    env.process(proc())
    env.run()
    assert got == [None, None]


def test_stream_rejects_push_after_close():
    env = Environment()
    comm = Communicator(env, 2)
    stream = StreamWindow(comm, 0, 1)
    stream.close()
    with pytest.raises(SimulationError):
        stream.push(1)


def test_stream_abort_returns_backlog_and_signals_eos():
    env = Environment()
    comm = Communicator(env, 2)
    stream = StreamWindow(comm, 0, 1, window=2)
    stranded = {}
    got = []

    def producer():
        # Two pushes fill the window; two more block on it.
        events = [stream.push(i) for i in range(4)]
        yield env.all_of(events)

    def killer():
        yield env.timeout(5.0)
        stranded["items"] = stream.abort()

    def late_consumer():
        yield env.timeout(10.0)
        got.append((yield stream.pop()))
        got.append((yield stream.pop()))

    env.process(producer())
    env.process(killer())
    env.process(late_consumer())
    env.run()
    # Abort recovered everything undelivered: the buffered window
    # plus the payloads of the blocked pushes.
    assert sorted(stranded["items"]) == [0, 1, 2, 3]
    assert stream.closed
    # The blocked producer was released (env.run() returned), and
    # pops after the abort see only EOS.
    assert got == [None, None]


def test_stream_abort_unblocks_a_waiting_pop():
    env = Environment()
    comm = Communicator(env, 2)
    stream = StreamWindow(comm, 0, 1)
    got = []

    def consumer():
        got.append((yield stream.pop()))

    def killer():
        yield env.timeout(1.0)
        stream.abort()

    env.process(consumer())
    env.process(killer())
    env.run()
    assert got == [None]


def test_stream_abort_rejects_further_pushes():
    env = Environment()
    comm = Communicator(env, 2)
    stream = StreamWindow(comm, 0, 1)
    assert stream.abort() == []
    with pytest.raises(SimulationError):
        stream.push(1)
