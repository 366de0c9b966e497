"""Tests for the NCS device model and the NCAPI."""

import numpy as np
import pytest

from repro.errors import (
    DeviceClosed,
    DeviceNotFound,
    InvalidGraphFile,
    NCAPIError,
)
from repro.nn import get_model
from repro.nn.weights import initialize_network
from repro.numerics import PrecisionPolicy
from repro.sim import Environment
from repro.ncs import NCAPI, USBTopology, paper_testbed_topology
from repro.vpu import compile_graph


@pytest.fixture(scope="module")
def micro_graph():
    net = get_model("googlenet-micro")
    initialize_network(net)
    return compile_graph(net)


def _make_api(env, n=1, functional=True):
    topo = paper_testbed_topology(env, num_devices=n)
    return NCAPI(env, topo, functional=functional)


def test_device_names(micro_graph):
    env = Environment()
    api = _make_api(env, n=3)
    assert [d.device_id for d in api.devices] == ["ncs0", "ncs1", "ncs2"]


def test_open_device_boots(micro_graph):
    env = Environment()
    api = _make_api(env)
    handle = env.run(until=api.open_device(0))
    assert handle.device_id == "ncs0"
    # Firmware transfer + RTOS bring-up dominates open time.
    assert env.now > 0.4


def test_open_bad_index():
    env = Environment()
    api = _make_api(env)
    with pytest.raises(DeviceNotFound):
        api.open_device(5)


def test_allocate_graph_from_blob(micro_graph):
    env = Environment()
    api = _make_api(env)

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_graph(micro_graph.to_bytes())
        return graph

    graph = env.run(until=env.process(scenario()))
    assert graph.name == micro_graph.name


def test_allocate_graph_rejects_garbage():
    env = Environment()
    api = _make_api(env)

    def scenario():
        dev = yield api.open_device(0)
        dev.allocate_graph(b"garbage")
        yield env.timeout(0)

    with pytest.raises(InvalidGraphFile):
        env.run(until=env.process(scenario()))


def test_load_tensor_then_get_result_functional(micro_graph):
    env = Environment()
    api = _make_api(env, functional=True)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 32, 32)).astype(np.float32) * 0.1

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        yield graph.load_tensor(x, user="tag1")
        result, user = yield graph.get_result()
        return result, user

    result, user = env.run(until=env.process(scenario()))
    assert user == "tag1"
    assert result.dtype == np.float16
    # Device-side FP16 execution matches the reference FP16 path.
    expected = micro_graph.network.forward(
        x[None], PrecisionPolicy.fp16())[0]
    np.testing.assert_allclose(result.astype(np.float32), expected,
                               atol=1e-3)


def test_non_functional_returns_zeros(micro_graph):
    env = Environment()
    api = _make_api(env, functional=False)

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        yield graph.load_tensor(None)
        result, _ = yield graph.get_result()
        return result

    result = env.run(until=env.process(scenario()))
    assert float(np.abs(result).sum()) == 0.0


def test_load_tensor_is_nonblocking_overlap(micro_graph):
    """load_tensor returns at transfer end, well before inference ends
    — the decoupling the paper's Listing 1 exploits."""
    env = Environment()
    api = _make_api(env, functional=False)
    marks = {}

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        t0 = env.now
        yield graph.load_tensor(None)
        marks["load_done"] = env.now - t0
        yield graph.get_result()
        marks["result_done"] = env.now - t0

    env.run(until=env.process(scenario()))
    # Transfer of a 32x32x3 fp16 tensor is ~{0.15ms latency + 15us}.
    assert marks["load_done"] < 1e-3
    # Result needs the full on-chip inference.
    assert marks["result_done"] >= micro_graph.inference_seconds


def test_result_order_is_fifo(micro_graph):
    env = Environment()
    api = _make_api(env, functional=False)
    users = []

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        yield graph.load_tensor(None, user="first")
        yield graph.load_tensor(None, user="second")
        _, u1 = yield graph.get_result()
        _, u2 = yield graph.get_result()
        users.extend([u1, u2])

    env.run(until=env.process(scenario()))
    assert users == ["first", "second"]


def test_tensor_shape_validated(micro_graph):
    env = Environment()
    api = _make_api(env)

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        yield graph.load_tensor(np.zeros((3, 64, 64), dtype=np.float32))

    with pytest.raises(NCAPIError, match="does not match"):
        env.run(until=env.process(scenario()))


def test_double_allocate_rejected(micro_graph):
    env = Environment()
    api = _make_api(env)

    def scenario():
        dev = yield api.open_device(0)
        yield dev.allocate_compiled(micro_graph)
        yield dev.allocate_compiled(micro_graph)

    with pytest.raises(NCAPIError):
        env.run(until=env.process(scenario()))


def test_closed_device_rejects_operations(micro_graph):
    env = Environment()
    api = _make_api(env)

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        dev.close()
        graph.load_tensor(None)
        yield env.timeout(0)

    with pytest.raises(DeviceClosed):
        env.run(until=env.process(scenario()))


def test_inference_times_recorded(micro_graph):
    env = Environment()
    api = _make_api(env, functional=False)

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        for _ in range(3):
            yield graph.load_tensor(None)
            yield graph.get_result()
        return graph

    graph = env.run(until=env.process(scenario()))
    times = graph.time_taken()
    assert len(times) == 3
    for t in times:
        assert t == pytest.approx(micro_graph.inference_seconds)


def test_unattached_device_rejected(micro_graph):
    env = Environment()
    topo = USBTopology(env)
    from repro.ncs.device import NCSDevice
    with pytest.raises(NCAPIError):
        NCSDevice(env, "ghost", topo)
