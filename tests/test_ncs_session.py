"""Tests for the synchronous session facade."""

import numpy as np
import pytest

from repro.errors import NCAPIError
from repro.ncs import SyncSession, USBTopology
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


def test_open_allocate_infer(micro_graph):
    sess = SyncSession(num_devices=1, functional=True)
    dev = sess.open_device(0)
    assert sess.now > 0.4  # firmware boot happened
    graph = sess.allocate(dev, micro_graph)
    x = np.random.default_rng(0).normal(
        size=(3, 32, 32)).astype(np.float32) * 0.1
    result, user = sess.infer(graph, x, user="tag")
    assert user == "tag"
    expected = micro_graph.network.forward(
        x[None], PrecisionPolicy.fp16())[0]
    np.testing.assert_allclose(result.astype(np.float32), expected,
                               atol=1e-3)


def test_allocate_from_blob(micro_graph):
    sess = SyncSession(num_devices=1, functional=False)
    dev = sess.open_device(0)
    graph = sess.allocate(dev, micro_graph.to_bytes())
    assert graph.name == micro_graph.name


def test_clock_advances_per_inference(micro_graph):
    sess = SyncSession(num_devices=1, functional=False)
    dev = sess.open_device(0)
    graph = sess.allocate(dev, micro_graph)
    t0 = sess.now
    sess.infer(graph, None)
    assert sess.now - t0 >= micro_graph.inference_seconds


def test_custom_topology_must_share_env(micro_graph):
    other_env = Environment()
    topo = USBTopology(other_env)
    topo.attach_device("ncs0")
    with pytest.raises(NCAPIError, match="share the session's env"):
        SyncSession(topology=topo)


def test_custom_topology_happy_path(micro_graph):
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("ncs0")
    sess = SyncSession(topology=topo, env=env, functional=False)
    dev = sess.open_device(0)
    graph = sess.allocate(dev, micro_graph)
    result, _ = sess.infer(graph, None)
    assert result is not None
