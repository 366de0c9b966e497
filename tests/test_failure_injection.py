"""Failure-injection tests: flaky USB links, retries, device reset,
and the device-level fault hooks behind the chaos harness (hangs,
thermal shutdown, transient busy)."""

import pytest

from repro.errors import (DeviceTimeout, NCAPIError, ThermalShutdown,
                          USBError)
from repro.ncs import NCAPI, USBTopology
from repro.ncs.thermal import ThermalConfig, ThermalModel
from repro.ncs.usb import USB_MAX_ATTEMPTS, USB_RETRY_BACKOFF_S
from repro.ncsw.scheduler import MultiVPUScheduler
from repro.ncsw.sources import WorkItem
from repro.nn import get_model
from repro.nn.weights import initialize_network
from repro.sim import Environment
from repro.vpu import compile_graph


@pytest.fixture(scope="module")
def micro_graph():
    net = get_model("googlenet-micro")
    initialize_network(net)
    return compile_graph(net)


def _topo_with_error(env, error_rate):
    topo = USBTopology(env)
    topo.attach_device("ncs0")
    link = topo.links[topo.path("ncs0")[0]]
    link.error_rate = error_rate
    return topo, link


def test_error_rate_validation():
    from repro.ncs.usb import USBLink
    with pytest.raises(USBError):
        USBLink("bad", error_rate=1.0)
    with pytest.raises(USBError):
        USBLink("bad", error_rate=-0.1)


def test_clean_link_never_fails():
    env = Environment()
    topo, link = _topo_with_error(env, 0.0)
    for _ in range(20):
        env.run(until=env.process(topo.transfer("ncs0", 1000)))
    assert link.errors_injected == 0


def test_flaky_link_retries_transparently():
    env = Environment()
    topo, link = _topo_with_error(env, 0.3)
    durations = []
    for _ in range(40):
        t0 = env.now
        env.run(until=env.process(topo.transfer("ncs0", 1000)))
        durations.append(env.now - t0)
    # Failures happened and were retried (some transfers took the
    # backoff penalty), but every transfer completed.
    assert link.errors_injected > 0
    assert max(durations) >= USB_RETRY_BACKOFF_S
    assert min(durations) < USB_RETRY_BACKOFF_S


def test_dead_link_gives_up_after_max_attempts():
    env = Environment()
    topo, link = _topo_with_error(env, 0.999999)
    with pytest.raises(USBError, match="failed after"):
        env.run(until=env.process(topo.transfer("ncs0", 1000)))
    assert link.errors_injected >= USB_MAX_ATTEMPTS


def test_inference_survives_flaky_link(micro_graph):
    """End to end: a 20%-lossy link slows the run but loses nothing."""
    env = Environment()
    topo, link = _topo_with_error(env, 0.2)
    api = NCAPI(env, topo, functional=False)

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        for _ in range(10):
            yield graph.load_tensor(None)
            yield graph.get_result()
        return graph

    graph = env.run(until=env.process(scenario()))
    assert len(graph.time_taken()) == 10
    assert link.errors_injected > 0


def test_device_reset_cycle(micro_graph):
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("ncs0")
    api = NCAPI(env, topo, functional=False)
    device = api.devices[0]

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        yield graph.load_tensor(None)
        yield graph.get_result()
        # Reset: graph gone, device re-booted.
        yield device.reset()
        assert device.booted
        assert device.graph is None
        # A fresh allocation works after reset.
        graph2 = yield dev.allocate_compiled(micro_graph)
        yield graph2.load_tensor(None)
        result, _ = yield graph2.get_result()
        return result

    result = env.run(until=env.process(scenario()))
    assert result is not None


def test_reset_drops_inflight_work(micro_graph):
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("ncs0")
    api = NCAPI(env, topo, functional=False)
    device = api.devices[0]

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        # Queue work but reset before collecting.
        yield graph.load_tensor(None)
        yield graph.load_tensor(None)
        yield device.reset()
        # The old graph handle is stale after reset.
        graph.load_tensor(None)
        yield env.timeout(0)

    with pytest.raises(NCAPIError):
        env.run(until=env.process(scenario()))


def test_reset_releases_ddr(micro_graph):
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("ncs0")
    api = NCAPI(env, topo, functional=False)
    device = api.devices[0]

    def scenario():
        dev = yield api.open_device(0)
        free_before = device.chip.ddr.free
        yield dev.allocate_compiled(micro_graph)
        assert device.chip.ddr.free < free_before
        yield device.reset()
        return free_before, device.chip.ddr.free

    before, after = env.run(until=env.process(scenario()))
    assert after == before


# -- device fault hooks (hang / thermal / busy) ------------------------

def _single_stick(env, micro_graph):
    """One open stick with an allocated graph, returned to a scenario."""
    topo = USBTopology(env)
    topo.attach_device("ncs0")
    api = NCAPI(env, topo, functional=False)
    return api


def test_hang_timeout_fires(micro_graph):
    """A hung firmware never answers; only the per-call deadline can
    detect it — and it raises DeviceTimeout, not a silent stall."""
    env = Environment()
    api = _single_stick(env, micro_graph)
    device = api.devices[0]

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        device.enable_fault_hooks()
        yield graph.load_tensor(None)
        device.inject_hang()
        t0 = env.now
        with pytest.raises(DeviceTimeout):
            yield graph.get_result(timeout=0.01)
        return env.now - t0

    waited = env.run(until=env.process(scenario()))
    assert waited == pytest.approx(0.01)


def test_injected_thermal_runaway_marks_dead(micro_graph):
    """Thermal shutdown kills the stick instead of looping: further
    calls fail fast with ThermalShutdown."""
    env = Environment()
    api = _single_stick(env, micro_graph)
    device = api.devices[0]

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        device.enable_fault_hooks()
        yield graph.load_tensor(None)
        yield graph.get_result()
        device.inject_thermal_runaway()
        assert device.dead
        assert device.failure_kind == "thermal"
        with pytest.raises(ThermalShutdown):
            yield graph.load_tensor(None)
        yield env.timeout(0)

    env.run(until=env.process(scenario()))
    assert device.thermal is not None and device.thermal.shut_down


def test_organic_thermal_shutdown(micro_graph):
    """A pathological thermal config cooks the stick mid-run; the
    firmware dies through mark_dead instead of hanging the loop."""
    env = Environment()
    api = _single_stick(env, micro_graph)
    device = api.devices[0]
    # Steady state at 2.5 W is 75 C; with a 200 ms time constant and a
    # 40 C cut-off the stick shuts down after a handful of inferences.
    device.thermal = ThermalModel(ThermalConfig(
        throttle_temp_c=35.0, recover_temp_c=30.0,
        shutdown_temp_c=40.0, time_constant_s=0.2))

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        device.enable_fault_hooks()
        done = 0
        with pytest.raises(ThermalShutdown):
            for _ in range(100):
                yield graph.load_tensor(None)
                yield graph.get_result()
                done += 1
        return done

    done = env.run(until=env.process(scenario()))
    assert device.dead and device.failure_kind == "thermal"
    assert 0 < done < 100


def test_busy_is_retried_with_backoff(micro_graph):
    """A short busy window is absorbed by the scheduler's bounded
    retry/backoff loop: all work completes, no failure recorded."""
    env = Environment()
    api = _single_stick(env, micro_graph)
    device = api.devices[0]

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        # Busy for 2 ms; the retry budget (1+2+3 ms of backoff)
        # outlasts it.
        device.inject_busy(0.002)
        sched = MultiVPUScheduler(env, [graph])
        yield sched.run([WorkItem(i, i, None, None) for i in range(4)])
        return sched

    sched = env.run(until=env.process(scenario()))
    assert len(sched.records) == 4
    assert device.busy_rejections > 0
    assert not sched.failures
    assert not sched.abandoned


def test_busy_gives_up_after_max_retries(micro_graph):
    """A busy window longer than the whole retry budget is treated as
    a device failure: bounded give-up, work abandoned, not an
    infinite retry loop."""
    env = Environment()
    api = _single_stick(env, micro_graph)
    device = api.devices[0]

    def scenario():
        dev = yield api.open_device(0)
        graph = yield dev.allocate_compiled(micro_graph)
        device.inject_busy(10.0)
        sched = MultiVPUScheduler(env, [graph])
        yield sched.run([WorkItem(i, i, None, None) for i in range(4)])
        return sched

    sched = env.run(until=env.process(scenario()))
    assert len(sched.records) == 0
    assert len(sched.abandoned) == 4
    assert sched.failures and sched.failures[0].kind == "busy"
    # Initial attempt + max_retries further tries, all rejected.
    assert device.busy_rejections == 1 + sched.max_retries
