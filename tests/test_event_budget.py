"""Kernel-event budget per item on the two hot request paths.

Every hop a caller waits on at once runs inline (``yield from``) or as
a callback chain, not as a fresh ``env.process`` — a spawned process
costs two extra kernel events (its start and its completion) per hop.
These ceilings pin the per-item event count of an un-faulted VPU
batch and of an MPI stream push/pop loop, so a spawn-per-hop pattern
creeping back into the device, scheduler or stream fails here.
"""

from __future__ import annotations

from repro.mpi import Communicator
from repro.mpi.stream import StreamWindow
from repro.ncsw import IntelVPU
from repro.ncsw.sources import WorkItem
from repro.sim import Environment

ITEMS = 40


def test_vpu_batch_event_budget(chaos_graph):
    env = Environment()
    target = IntelVPU(graph=chaos_graph, num_devices=2, functional=False)
    env.run(until=target.prepare(env))
    before = env._seq
    records = env.run(until=env.process(target.execute(
        [WorkItem(i, i, None, None) for i in range(ITEMS)])))
    assert len(records) == ITEMS
    # ~10 events per item: two USB transfers (lock grant + wire time
    # each), a put and a get at each of the two FIFOs, and the SHAVE
    # array grant + completion.
    assert env._seq - before <= 407


def test_stream_push_pop_event_budget():
    env = Environment()
    stream = StreamWindow(Communicator(env, 2), 0, 1, window=4)
    got = []

    def producer():
        for i in range(ITEMS):
            yield stream.push(i)
        yield stream.close()

    def consumer():
        while True:
            item = yield stream.pop()
            if item is None:
                return
            got.append(item)

    env.process(producer())
    done = env.process(consumer())
    before = env._seq
    env.run(until=done)
    assert got == list(range(ITEMS))
    # Per item: wire timeout, window put, push completion, and the
    # pop's start, get and completion.
    assert env._seq - before <= 247
