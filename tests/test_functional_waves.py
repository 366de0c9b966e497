"""Batched functional inference must give per-image bits.

A forward over a batch is *batch invariant*: row i of ``forward(X)``
is bit-identical to ``forward(X[i:i+1])[0]``.  That is what lets the
NCS sticks of one bus compute their FP16 results as one batched
forward per wave (:class:`repro.ncs.device.ForwardWave`) and still
record exactly what one forward per image records.
"""

import numpy as np
import pytest

from repro.ncs import NCAPI, paper_testbed_topology
from repro.ncsw import FaultPlan, IntelVPU, NCSw, SyntheticSource
from repro.nn import get_model
from repro.nn.weights import initialize_network
from repro.numerics import PrecisionPolicy
from repro.sim import Environment
from repro.vpu import compile_graph


@pytest.fixture(scope="module")
def micro_graph():
    net = get_model("googlenet-micro")
    initialize_network(net)
    return compile_graph(net)


def _images(count, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(count, 3, 32, 32)) * 0.5).astype(np.float32)


def _fp16_rows(graph, tensors):
    """The parent's per-image device computation: one forward each."""
    return [graph.network.forward(t[None], PrecisionPolicy.fp16())[0]
            .astype(np.float16) for t in tensors]


@pytest.mark.parametrize("policy", [PrecisionPolicy.fp32(),
                                    PrecisionPolicy.fp16()],
                         ids=["fp32", "fp16"])
def test_forward_is_batch_invariant(micro_graph, policy):
    net = micro_graph.network
    x = _images(8, seed=1)
    singles = [net.forward(x[i:i + 1], policy)[0] for i in range(8)]
    for batch in range(1, 9):
        out = net.forward(x[:batch], policy)
        for i in range(batch):
            assert out[i].tobytes() == singles[i].tobytes(), (batch, i)


def _source(tensors):
    return SyntheticSource(len(tensors),
                           payload=lambda _rng, index: tensors[index])


def _vpu_run(graph, tensors, devices=8, plan=None, batch=8):
    fw = NCSw()
    fw.add_source("x", _source(tensors))
    target = IntelVPU(graph=graph, num_devices=devices, functional=True,
                      fault_plan=plan)
    fw.add_target("vpu", target)
    return fw.run("x", "vpu", batch_size=batch), target


def _pending(target):
    waves = target.api.devices[0].waves
    assert all(d.waves is waves for d in target.api.devices)
    return sum(len(wave) for wave in waves.values())


def _expected(graph, tensors):
    out = {}
    for index, row in enumerate(_fp16_rows(graph, tensors)):
        flat = row.astype(np.float32).ravel()
        top = int(flat.argmax())
        out[index + 1] = (top, float(flat[top]))
    return out


def test_eight_sticks_record_per_image_results(micro_graph):
    tensors = _images(20, seed=2)
    result, target = _vpu_run(micro_graph, tensors)
    got = {r.image_id: (r.predicted, r.confidence)
           for r in result.records}
    assert got == _expected(micro_graph, tensors)
    assert _pending(target) == 0


def test_waves_batch_the_sticks(micro_graph, monkeypatch):
    # Eight sticks side by side: one forward per batch of eight, not
    # one per image.
    from repro.nn.graph import Network

    calls = []
    real = Network.forward_with_blobs

    def counting(self, x, *args, **kwargs):
        calls.append(len(x))
        return real(self, x, *args, **kwargs)

    monkeypatch.setattr(Network, "forward_with_blobs", counting)
    _vpu_run(micro_graph, _images(16, seed=3))
    assert calls == [8, 8]


def test_results_are_those_of_the_collected_tensor(micro_graph):
    # One stick keeps the next tensor queued while it collects the
    # current one: each collect computes only the inference that has
    # started, and every record is that image's own result.
    x = _images(4, seed=4)
    result, target = _vpu_run(micro_graph, x, devices=1)
    got = {r.image_id: (r.predicted, r.confidence)
           for r in result.records}
    assert got == _expected(micro_graph, x)
    assert _pending(target) == 0


def test_killed_stick_leaves_no_pending_entry(micro_graph):
    # Stick 3 dies in the middle of its first inference; its item is
    # served by a survivor and every record keeps per-image bits.
    tensors = _images(16, seed=5)
    plan = FaultPlan.kill(3, at=0.4685)
    result, target = _vpu_run(micro_graph, tensors, plan=plan)
    assert plan.injected and result.reassigned >= 1
    got = {r.image_id: (r.predicted, r.confidence)
           for r in result.records}
    assert got == _expected(micro_graph, tensors)
    assert _pending(target) == 0


def test_only_stick_killed_mid_inference_leaves_wave_empty(micro_graph):
    # With no survivor nothing collects after the death, so only the
    # dead stick dropping its entry empties the wave.
    plan = FaultPlan.kill(0, at=0.4565)
    result, target = _vpu_run(micro_graph, _images(2, seed=6),
                              devices=1, plan=plan, batch=2)
    assert plan.injected and result.abandoned == 2
    assert _pending(target) == 0


def test_reset_mid_inference_drops_the_entry(micro_graph):
    env = Environment()
    api = NCAPI(env, paper_testbed_topology(env, num_devices=1))
    device = api.devices[0]

    def scenario():
        handle = yield api.open_device(0)
        graph = yield handle.allocate_compiled(micro_graph)
        yield graph.load_tensor(_images(1)[0])
        yield env.timeout(micro_graph.inference_seconds / 2)
        assert sum(len(w) for w in device.waves.values()) == 1
        yield device.reset()

    env.run(until=env.process(scenario()))
    assert sum(len(w) for w in device.waves.values()) == 0


def test_hung_stick_still_returns_a_finished_result(micro_graph):
    # A hang drops the stick's wave entries; a result it had already
    # finished is still collected, computed from its own tensor.
    env = Environment()
    api = NCAPI(env, paper_testbed_topology(env, num_devices=1))
    device = api.devices[0]
    x = _images(1, seed=7)

    def scenario():
        handle = yield api.open_device(0)
        graph = yield handle.allocate_compiled(micro_graph)
        yield graph.load_tensor(x[0])
        yield env.timeout(2 * micro_graph.inference_seconds)
        device.inject_hang()
        result, _ = yield graph.get_result()
        return result

    result = env.run(until=env.process(scenario()))
    assert result.tobytes() == _fp16_rows(micro_graph, x)[0].tobytes()
    assert sum(len(w) for w in device.waves.values()) == 0
