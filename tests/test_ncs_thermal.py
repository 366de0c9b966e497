"""Tests for the NCS thermal model and its device integration."""

import pytest

from repro.errors import SimulationError
from repro.ncs import NCAPI, USBTopology
from repro.ncs.thermal import ThermalConfig, ThermalModel
from repro.nn import get_model
from repro.nn.weights import initialize_network
from repro.sim import Environment
from repro.vpu import compile_graph


@pytest.fixture(scope="module")
def micro_graph():
    net = get_model("googlenet-micro")
    initialize_network(net)
    return compile_graph(net)


# --- model physics -----------------------------------------------------------

def test_config_validation():
    with pytest.raises(SimulationError):
        ThermalConfig(resistance_c_per_w=0)
    with pytest.raises(SimulationError):
        ThermalConfig(throttle_scale=0)
    with pytest.raises(SimulationError):
        ThermalConfig(throttle_temp_c=60, recover_temp_c=65)


def test_starts_at_ambient():
    m = ThermalModel()
    assert m._temp == 25.0
    assert not m._throttled
    assert m.frequency_scale() == 1.0


def test_heats_toward_steady_state():
    m = ThermalModel()
    # 2.5 W at 20 C/W -> steady state 75 C.
    assert m.config.ambient_c + 2.5 * m.config.resistance_c_per_w == 75.0
    m.update(600.0, 2.5)  # ten time constants
    assert m._temp == pytest.approx(75.0, abs=0.1)


def test_exponential_approach():
    m = ThermalModel()
    m.update(60.0, 2.5)  # one time constant
    # T = 75 + (25 - 75) e^-1 = 75 - 50/e ~ 56.6
    assert m._temp == pytest.approx(56.6, abs=0.2)


def test_cools_when_idle():
    m = ThermalModel()
    m.update(600.0, 2.5)
    hot = m._temp
    m.update(1200.0, 0.0)
    assert m._temp < hot
    assert m._temp == pytest.approx(25.0, abs=0.2)


def test_throttle_hysteresis():
    m = ThermalModel()
    m.update(600.0, 2.5)  # 75 C > 70 C threshold
    assert m._throttled
    assert m.frequency_scale() == pytest.approx(0.6)
    assert m.throttle_events == 1
    # Cool a little, but stay above the 62 C recovery point.
    m.update(612.0, 0.0)
    if m._temp > 62.0:
        assert m._throttled  # hysteresis holds
    # Cool fully: recovers.
    m.update(1800.0, 0.0)
    assert not m._throttled
    assert m.frequency_scale() == 1.0


def test_update_validation():
    m = ThermalModel()
    m.update(10.0, 1.0)
    with pytest.raises(SimulationError):
        m.update(5.0, 1.0)  # time reversal
    with pytest.raises(SimulationError):
        m.update(20.0, -1.0)


# --- device integration -----------------------------------------------------------

def _run_inferences(n, thermal, micro_graph):
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("ncs0")
    api = NCAPI(env, topo, functional=False)
    device = api.devices[0]
    device.thermal = thermal

    def scenario():
        dev = yield api.open_device(0)
        h = yield dev.allocate_compiled(micro_graph)
        for _ in range(n):
            yield h.load_tensor(None)
            yield h.get_result()
        return h.time_taken()

    times = env.run(until=env.process(scenario()))
    return times


def test_cool_device_unthrottled(micro_graph):
    thermal = ThermalModel()
    times = _run_inferences(5, thermal, micro_graph)
    # Five micro inferences (~15 ms) cannot heat the stick.
    assert not thermal._throttled
    assert max(times) == pytest.approx(min(times), rel=1e-6)


def test_sustained_load_throttles(micro_graph):
    # An aggressive thermal config (tiny tau) throttles within a few
    # inferences and visibly stretches the later ones.
    cfg = ThermalConfig(time_constant_s=0.005, throttle_temp_c=60,
                        recover_temp_c=50, throttle_scale=0.5)
    thermal = ThermalModel(cfg)
    times = _run_inferences(12, thermal, micro_graph)
    assert thermal._throttled or thermal.throttle_events > 0
    # Throttled inferences take ~2x the cold ones.
    assert max(times) > 1.5 * min(times)


def test_no_thermal_model_by_default(micro_graph):
    env = Environment()
    topo = USBTopology(env)
    topo.attach_device("ncs0")
    api = NCAPI(env, topo, functional=False)
    assert api.devices[0].thermal is None
