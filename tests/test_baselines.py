"""Tests for the CPU/GPU baseline device models."""

import numpy as np
import pytest

from repro.baselines import (
    BatchLatencyModel,
    CPU_LATENCY,
    CPUDevice,
    GPU_LATENCY,
    GPUDevice,
    REFERENCE_GOOGLENET_MACS,
)
from repro.errors import SimulationError
from repro.nn import build_googlenet, get_model
from repro.nn.weights import initialize_network
from repro.sim import Environment


# --- latency model ----------------------------------------------------------

def test_model_reproduces_anchors():
    m = BatchLatencyModel.from_anchors(26.0e-3, 22.7e-3)
    assert m.per_image_seconds(1) == pytest.approx(26.0e-3)
    assert m.per_image_seconds(8) == pytest.approx(22.7e-3)


def test_model_monotone_in_batch():
    m = CPU_LATENCY
    times = [m.per_image_seconds(b) for b in (1, 2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(times, times[1:]))


def test_cpu_matches_paper_throughput():
    # Paper: 44.0 img/s at batch 8; 44.5 img/s projected at batch 16.
    assert CPU_LATENCY.throughput(8) == pytest.approx(44.0, abs=0.5)
    assert CPU_LATENCY.throughput(16) == pytest.approx(44.5, abs=0.5)


def test_gpu_matches_paper_throughput():
    # Paper: 74.2 img/s at batch 8; 79.9 img/s at batch 16 (Fig 8b).
    assert GPU_LATENCY.throughput(8) == pytest.approx(74.2, abs=0.8)
    assert GPU_LATENCY.throughput(16) == pytest.approx(79.9, abs=1.0)


def test_scaling_factors_match_fig6b():
    # Fig 6b: CPU improves ~1.1x at batch 8, GPU ~1.9x.
    cpu_scale = CPU_LATENCY.per_image_seconds(1) / \
        CPU_LATENCY.per_image_seconds(8)
    gpu_scale = GPU_LATENCY.per_image_seconds(1) / \
        GPU_LATENCY.per_image_seconds(8)
    assert cpu_scale == pytest.approx(1.15, abs=0.05)
    assert gpu_scale == pytest.approx(1.9, abs=0.05)


def test_model_validation():
    with pytest.raises(SimulationError):
        BatchLatencyModel(-1, 0)
    with pytest.raises(SimulationError):
        BatchLatencyModel.from_anchors(10e-3, 20e-3)  # anti-scaling
    m = CPU_LATENCY
    with pytest.raises(SimulationError):
        m.per_image_seconds(0)
    with pytest.raises(SimulationError):
        m.per_image_seconds(1000)
    with pytest.raises(SimulationError):
        m.per_image_seconds(1, mac_scale=0)


def test_mac_scale_linear():
    m = CPU_LATENCY
    assert m.per_image_seconds(4, mac_scale=0.5) == pytest.approx(
        0.5 * m.per_image_seconds(4))


# --- devices -------------------------------------------------------------------

@pytest.fixture(scope="module")
def micro_net():
    net = get_model("googlenet-micro")
    initialize_network(net)
    return net


def test_device_tdp_values(micro_net):
    env = Environment()
    assert CPUDevice(env, micro_net).tdp_watts == 80.0
    assert GPUDevice(env, micro_net).tdp_watts == 80.0


def test_paper_scale_mac_scale_is_one():
    env = Environment()
    net = build_googlenet()
    dev = CPUDevice(env, net)
    assert dev.mac_scale == pytest.approx(1.0, abs=1e-6)
    assert net.total_macs(1) == REFERENCE_GOOGLENET_MACS


def test_micro_model_is_cheaper(micro_net):
    env = Environment()
    dev = CPUDevice(env, micro_net)
    assert dev.mac_scale < 0.01
    assert dev.per_image_seconds(1) < 1e-3


def test_run_batch_advances_clock(micro_net):
    env = Environment()
    dev = CPUDevice(env, micro_net, functional=False)
    env.run(until=env.process(dev._run(None, 8)))
    assert env.now == pytest.approx(dev.batch_seconds(8))
    assert dev.batches_run == 1
    assert dev.images_run == 8


def test_run_batch_functional_returns_probs(micro_net):
    env = Environment()
    dev = CPUDevice(env, micro_net, functional=True)
    x = np.random.default_rng(0).normal(
        size=(2, 3, 32, 32)).astype(np.float32) * 0.1
    out = env.run(until=env.process(dev._run(x, 2)))
    assert out.shape == (2, 10, 1, 1)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-4)


def test_predict_synchronous(micro_net):
    env = Environment()
    dev = GPUDevice(env, micro_net)
    x = np.random.default_rng(1).normal(
        size=(3, 3, 32, 32)).astype(np.float32) * 0.1
    labels, confs = dev.predict(x)
    assert labels.shape == (3,)
    assert np.all(confs > 0)
    assert env.now == 0  # no simulated time consumed
