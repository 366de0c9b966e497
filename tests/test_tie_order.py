"""Exact same-instant tie order across the hops a caller waits on.

A hop the caller waits on at once may run as a nested process or
inline in the caller (``yield from``); the two allocate different
event sequence numbers, so they can only agree on the model's
behaviour if no same-instant tie changes order.  These tests pin the
order itself — who loads, computes and reads back first when sticks
contend for one hub, which pushed item a waiting pop receives, and
which host stamps a completion when a host dies mid-batch — so any
hop rewrite that reorders a tie fails here, not in a digest diff.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterServer
from repro.mpi import Communicator
from repro.mpi.stream import StreamWindow
from repro.ncs import NCAPI, paper_testbed_topology
from repro.ncsw import IntelCPU, IntelVPU
from repro.ncsw.faults import FaultPlan
from repro.serve import COMPLETED, PoissonWorkload
from repro.sim import Environment
from repro.sim.monitor import TraceRecorder

#: Actions the device emits on the load -> compute -> read-back path.
_PATH_ACTIONS = ("tensor_loaded", "inference_complete", "result_read")


def _hub_contention_trace(chaos_graph):
    """Five sticks — two on their own root ports, whose identical
    timelines tie at every step, and three contending for hub A's
    upstream link — each loading two tensors and then reading both
    results back, all starting at the same instant."""
    env = Environment()
    trace = TraceRecorder(env)
    api = NCAPI(env, paper_testbed_topology(env, num_devices=5),
                functional=False, trace=trace)

    def bring_up(index):
        device = yield api.open_device(index)
        return (yield device.allocate_compiled(chaos_graph))

    graphs = [env.run(until=env.process(bring_up(i))) for i in range(5)]

    def host(graph):
        yield graph.load_tensor(None, user="a")
        yield graph.load_tensor(None, user="b")
        yield graph.get_result()
        yield graph.get_result()

    workers = [env.process(host(g)) for g in graphs]
    env.run(until=env.all_of(workers))
    return [(round(e.time, 9), e.actor, e.action) for e in trace.events
            if e.action in _PATH_ACTIONS]


def test_hub_contention_tie_order_is_pinned(chaos_graph):
    got = _hub_contention_trace(chaos_graph)
    t0 = got[0][0]
    rel = [(round(t - t0, 9), actor, action) for t, actor, action in got]
    assert rel == [
        (0.0, "ncs0", "tensor_loaded"),
        (0.0, "ncs1", "tensor_loaded"),
        (0.00015, "ncs2", "tensor_loaded"),
        (0.00016536, "ncs0", "tensor_loaded"),
        (0.00016536, "ncs1", "tensor_loaded"),
        (0.00046536, "ncs3", "tensor_loaded"),
        (0.00078072, "ncs4", "tensor_loaded"),
        (0.00109608, "ncs2", "tensor_loaded"),
        (0.00141144, "ncs3", "tensor_loaded"),
        (0.001675363, "ncs0", "inference_complete"),
        (0.001675363, "ncs1", "inference_complete"),
        (0.0017268, "ncs4", "tensor_loaded"),
        (0.001825363, "ncs2", "inference_complete"),
        (0.001825413, "ncs0", "result_read"),
        (0.001825413, "ncs1", "result_read"),
        (0.002125413, "ncs2", "result_read"),
        (0.002140723, "ncs3", "inference_complete"),
        (0.002440773, "ncs3", "result_read"),
        (0.002456083, "ncs4", "inference_complete"),
        (0.002756133, "ncs4", "result_read"),
        (0.003350727, "ncs0", "inference_complete"),
        (0.003350727, "ncs1", "inference_complete"),
        (0.003500727, "ncs2", "inference_complete"),
        (0.003500777, "ncs0", "result_read"),
        (0.003500777, "ncs1", "result_read"),
        (0.003800777, "ncs2", "result_read"),
        (0.003816087, "ncs3", "inference_complete"),
        (0.004116137, "ncs3", "result_read"),
        (0.004131447, "ncs4", "inference_complete"),
        (0.004431497, "ncs4", "result_read"),
    ]


def test_hub_contention_tie_order_replays(chaos_graph):
    assert (_hub_contention_trace(chaos_graph)
            == _hub_contention_trace(chaos_graph))


def test_stream_pushes_land_in_wire_order_on_a_waiting_pop():
    """A pop already waiting receives whichever push lands first; a
    smaller payload pushed later can overtake a larger one, and two
    equal pushes made at one instant keep their push order."""
    env = Environment()
    comm = Communicator(env, 2)
    stream = StreamWindow(comm, 0, 1, window=4)
    # Payloads in push order: big @0, then small, small, big @1us.
    payloads = [np.zeros(n, dtype=np.uint8)
                for n in (1 << 20, 16, 16, 1 << 20)]
    got = []

    def consumer():
        while True:
            item = yield stream.pop()
            if item is None:
                return
            label = next(k for k, p in enumerate(payloads) if p is item)
            got.append((env.now, label, stream.depth))

    def producer():
        stream.push(payloads[0])
        yield env.timeout(1e-6)
        yield env.all_of([stream.push(p) for p in payloads[1:]])
        yield stream.close()

    env.process(consumer())
    env.process(producer())
    env.run()
    big, small = (comm.transfer_seconds(n) for n in (1 << 20, 16))
    assert got == [(1e-6 + small, 1, 1), (1e-6 + small, 2, 0),
                   (0.0 + big, 0, 0), (1e-6 + big, 3, 0)]
    assert stream.pushed == 4 and stream.popped == 4


@pytest.mark.parametrize("kind", ["vpu", "cpu"])
def test_host_killed_mid_batch_keeps_the_ledger(chaos_graph, kind):
    """Kill a host while its backend is running a batch: every request
    is still resolved exactly once, and the dead host stamps no
    completion at or after its death."""
    def target():
        if kind == "cpu":
            return IntelCPU(chaos_graph.network, functional=False)
        return IntelVPU(graph=chaos_graph, num_devices=2,
                        functional=False)

    def run(host_faults=None):
        targets = [target() for _ in range(3)]
        server = ClusterServer(targets, slo_seconds=60.0,
                               host_faults=host_faults)
        return server.run(PoissonWorkload(rate=1500.0, seed=3), 150)

    baseline = run()
    busy = sorted((r for s in baseline.shards if s.name == "host1"
                   for r in s.result.requests if r.status == COMPLETED),
                  key=lambda r: r.dispatched_at)
    assert busy
    victim = busy[len(busy) // 2]
    kill_at = (victim.dispatched_at + victim.completed_at) / 2
    result = run(FaultPlan.kill(1, kill_at))

    assert result.completed == result.offered == 150
    accounted = (result.completed + result.shed + result.rejected
                 + result.timed_out + result.abandoned)
    assert accounted == result.offered
    ids = [r.request_id for s in result.shards
           for r in s.result.requests]
    assert len(ids) == len(set(ids)) == 150
    [dead] = [s for s in result.shards if s.killed_at is not None]
    assert dead.name == "host1" and dead.killed_at == kill_at
    late = [r.request_id for r in dead.result.requests
            if r.completed_at is not None and r.completed_at >= kill_at]
    assert late == []
    # The victim's batch was in flight at the kill: a survivor served it.
    [served] = [r for s in result.shards if s.name != "host1"
                for r in s.result.requests
                if r.request_id == victim.request_id]
    assert served.status == COMPLETED
    assert dead.resharded > 0
