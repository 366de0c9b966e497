"""Tests for the testbed-noise (jitter) model and batch compilation."""

import numpy as np
import pytest

from repro.errors import CompileError, SimulationError
from repro.harness import fig6a_throughput_per_subset
from repro.ncsw import IntelVPU, NCSw, SyntheticSource
from repro.nn import get_model
from repro.nn.weights import initialize_network
from repro.baselines import CPUDevice
from repro.sim import Environment
from repro.vpu import compile_graph


@pytest.fixture(scope="module")
def micro_net():
    net = get_model("googlenet-micro")
    initialize_network(net)
    return net


# --- jitter ---------------------------------------------------------------

def test_jitter_validation(micro_net):
    env = Environment()
    with pytest.raises(SimulationError):
        CPUDevice(env, micro_net, jitter=0.6)
    with pytest.raises(SimulationError):
        CPUDevice(env, micro_net, jitter=-0.1)


def test_zero_jitter_is_deterministic(micro_net):
    def run():
        env = Environment()
        dev = CPUDevice(env, micro_net, functional=False)
        env.run(until=env.process(dev._run(None, 4)))
        return env.now

    assert run() == run()


def test_jitter_spreads_batch_times(micro_net):
    env = Environment()
    dev = CPUDevice(env, micro_net, functional=False, jitter=0.05)
    times = []

    def proc():
        for _ in range(20):
            t0 = env.now
            yield from dev._run(None, 4)
            times.append(env.now - t0)

    env.run(until=env.process(proc()))
    assert np.std(times) > 0
    # Mean stays near the deterministic value.
    base = dev.batch_seconds(4)
    assert np.mean(times) == pytest.approx(base, rel=0.1)


def test_vpu_jitter_spreads_inference_times(micro_net):
    graph = compile_graph(micro_net)
    fw = NCSw()
    fw.add_source("s", SyntheticSource(24))
    fw.add_target("vpu", IntelVPU(graph=graph, num_devices=2,
                                  functional=False, jitter=0.05))
    run = fw.run("s", "vpu", batch_size=2)
    stats = run.latency_stats()
    assert stats.std > 0
    # Submit-to-complete latency includes FIFO queueing behind the
    # double-buffered previous item, so it sits between 1x and ~2.5x
    # the raw inference time.
    assert (graph.inference_seconds * 0.9 < stats.mean
            < graph.inference_seconds * 2.5)


def test_fig6a_with_jitter_has_error_bars():
    result = fig6a_throughput_per_subset(images_per_subset=24,
                                         jitter=0.03)
    vpu = result.by_label("vpu")
    assert any(e > 0 for e in vpu.yerr)
    # Mean throughput stays near the paper's number.
    assert np.mean(vpu.y) == pytest.approx(77.2, rel=0.1)
    assert "jitter" in result.notes


def test_fig6a_default_stays_deterministic():
    a = fig6a_throughput_per_subset(images_per_subset=16)
    b = fig6a_throughput_per_subset(images_per_subset=16)
    assert a.by_label("vpu").y == b.by_label("vpu").y


# --- batch compilation ---------------------------------------------------------

def test_batch_compile_shapes(micro_net):
    g = compile_graph(micro_net, batch=4)
    assert g.input_shape.n == 4
    assert g.output_shape.n == 4
    assert g.input_tensor_bytes == 4 * 3 * 32 * 32 * 2


def test_batch_compile_validation(micro_net):
    with pytest.raises(CompileError):
        compile_graph(micro_net, batch=0)


def test_batch_compile_sublinear_total_time():
    """A batch-8 graph takes less than 8x the batch-1 graph (dispatch
    amortisation + better SHAVE utilisation) but more than 4x (the
    compute genuinely scales) — the §III trade-off."""
    from repro.nn import build_googlenet
    net = build_googlenet()
    t1 = compile_graph(net, batch=1).inference_seconds
    t8 = compile_graph(net, batch=8).inference_seconds
    assert 4 * t1 < t8 < 8 * t1


def test_batch_graph_runs_on_device(micro_net):
    from repro.ncs import NCAPI, USBTopology
    graph = compile_graph(micro_net, batch=2)
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("ncs0")
    api = NCAPI(env, topo, functional=True)
    x = np.random.default_rng(0).normal(
        size=(2, 3, 32, 32)).astype(np.float32) * 0.1

    def scenario():
        dev = yield api.open_device(0)
        h = yield dev.allocate_compiled(graph)
        yield h.load_tensor(x)
        result, _ = yield h.get_result()
        return result

    result = env.run(until=env.process(scenario()))
    # Device returns the first sample's output plane (batch semantics
    # on-stick return one result tensor per load).
    assert result.shape == (10, 1, 1)
