"""Tests for the USB topology model."""

import pytest

from repro.errors import USBError
from repro.sim import Environment
from repro.ncs import USBTopology, paper_testbed_topology
from repro.ncs.usb import USB3_BANDWIDTH_BYTES_S, USB3_LATENCY_S


def test_attach_to_root_ports():
    env = Environment()
    topo = USBTopology(env, root_ports=2)
    topo.attach_device("a")
    topo.attach_device("b")
    assert topo.devices == ["a", "b"]
    with pytest.raises(USBError):
        topo.attach_device("c")  # no ports left


def test_duplicate_device_rejected():
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("a")
    with pytest.raises(USBError):
        topo.attach_device("a")


def test_hub_attachment_and_port_limit():
    env = Environment()
    topo = USBTopology(env, root_ports=2)
    topo.add_hub("h", ports=2)
    topo.attach_device("a", hub="h")
    topo.attach_device("b", hub="h")
    with pytest.raises(USBError):
        topo.attach_device("c", hub="h")
    with pytest.raises(USBError):
        topo.attach_device("d", hub="nope")


def test_hub_consumes_root_port():
    env = Environment()
    topo = USBTopology(env, root_ports=1)
    topo.add_hub("h", ports=4)
    with pytest.raises(USBError):
        topo.attach_device("direct")  # root port taken by hub


def test_rejected_hub_leaks_no_root_port():
    env = Environment()
    topo = USBTopology(env, root_ports=2)
    topo.add_hub("hubA")
    with pytest.raises(USBError, match="duplicate link 'hubA-up'"):
        topo.add_hub("hubA")
    assert topo._root_free == ["root1"]
    topo.attach_device("direct")  # the port is still free to take
    assert topo.path("direct") == ("root1",)


def test_hub_chains_exist_before_any_hub():
    env = Environment()
    topo = USBTopology(env, root_ports=1)
    with pytest.raises(USBError, match="unknown hub"):
        topo.attach_device("a", hub="h")
    assert topo._hub_chains == {}


def test_path_root_vs_hub():
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("direct")
    topo.add_hub("h")
    topo.attach_device("hubbed", hub="h")
    assert len(topo.path("direct")) == 1
    assert len(topo.path("hubbed")) == 2
    with pytest.raises(USBError):
        topo.path("ghost")


def test_transfer_seconds_uncontended():
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("a")
    t = topo.transfer_seconds("a", int(USB3_BANDWIDTH_BYTES_S))
    assert t == pytest.approx(1.0 + USB3_LATENCY_S)


def test_transfer_advances_clock():
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("a")
    nbytes = int(USB3_BANDWIDTH_BYTES_S / 100)  # 10 ms
    env.run(until=env.process(topo.transfer("a", nbytes)))
    assert env.now == pytest.approx(0.01 + USB3_LATENCY_S)
    assert topo.links[topo.path("a")[0]].bytes_moved == nbytes


def test_same_hub_transfers_serialise():
    env = Environment()
    topo = USBTopology(env)
    topo.add_hub("h", ports=2)
    topo.attach_device("a", hub="h")
    topo.attach_device("b", hub="h")
    nbytes = int(USB3_BANDWIDTH_BYTES_S / 100)
    done = []

    def proc():
        yield (env.process(topo.transfer("a", nbytes))
               & env.process(topo.transfer("b", nbytes)))
        done.append(env.now)

    env.process(proc())
    env.run()
    # Two 10 ms transfers through one upstream link: ~20 ms.
    assert done[0] == pytest.approx(0.02, rel=0.1)


def test_different_root_ports_parallel():
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("a")
    topo.attach_device("b")
    nbytes = int(USB3_BANDWIDTH_BYTES_S / 100)
    done = []

    def proc():
        yield (env.process(topo.transfer("a", nbytes))
               & env.process(topo.transfer("b", nbytes)))
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done[0] == pytest.approx(0.01, rel=0.1)


def test_paper_testbed_shape():
    env = Environment()
    topo = paper_testbed_topology(env, num_devices=8)
    assert len(topo.devices) == 8
    # 2 direct, 3 on hubA, 3 on hubB.
    direct = [d for d in topo.devices if len(topo.path(d)) == 1]
    hubbed = [d for d in topo.devices if len(topo.path(d)) == 2]
    assert len(direct) == 2
    assert len(hubbed) == 6
    hub_links = {topo.path(d)[1] for d in hubbed}
    assert len(hub_links) == 2


def test_paper_testbed_partial():
    env = Environment()
    topo = paper_testbed_topology(env, num_devices=3)
    assert len(topo.devices) == 3
    with pytest.raises(USBError):
        paper_testbed_topology(Environment(), num_devices=9)
    with pytest.raises(USBError):
        paper_testbed_topology(Environment(), num_devices=0)


def test_validation():
    with pytest.raises(USBError):
        USBTopology(Environment(), root_ports=0)
    env = Environment()
    topo = USBTopology(env)
    with pytest.raises(USBError):
        topo.add_hub("h", ports=0)
