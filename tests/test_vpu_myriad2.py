"""Tests for the assembled Myriad 2 chip model."""

import pytest

from repro.errors import AllocationError, SimulationError
from repro.nn import get_model
from repro.nn.weights import initialize_network
from repro.sim import Environment, TraceRecorder
from repro.vpu import Myriad2, Myriad2Config, PowerIslands, compile_graph


@pytest.fixture(scope="module")
def micro_graph():
    net = get_model("googlenet-micro")
    initialize_network(net)
    return compile_graph(net)


def test_config_validation():
    with pytest.raises(SimulationError):
        Myriad2Config(num_shaves=0)
    with pytest.raises(SimulationError):
        Myriad2Config(num_shaves=13)


def test_chip_construction_defaults():
    env = Environment()
    chip = Myriad2(env)
    assert len(chip.shaves) == 12
    assert chip.cmx.capacity == 2 * 1024 ** 2
    assert chip.islands.count == 20
    assert chip.islands._on["risc0"]  # runtime scheduler island


def test_inference_advances_clock_by_estimate(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)
    done = env.run(until=env.process(chip.run_inference(micro_graph)))
    assert env.now == _sequential_end(
        0.0, _layer_seconds(micro_graph, chip.config.freq_hz))
    assert env.now == pytest.approx(micro_graph.inference_seconds)
    assert chip.inferences_completed == 1
    # Per-layer times returned like NCAPI TIME_TAKEN.
    assert isinstance(done, dict)
    assert len(done) == len(micro_graph.layers)
    assert sum(done.values()) == pytest.approx(env.now)


def test_inferences_serialise_on_shave_array(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)

    def both():
        a = env.process(chip.run_inference(micro_graph))
        b = env.process(chip.run_inference(micro_graph))
        yield a & b

    env.run(until=env.process(both()))
    assert env.now == pytest.approx(2 * micro_graph.inference_seconds)


def test_graph_allocation_reserves_ddr(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    before = chip.ddr.free
    handle = chip.allocate_graph(micro_graph)
    assert chip.ddr.free < before
    chip.deallocate_graph(handle)
    assert chip.ddr.free == before
    with pytest.raises(AllocationError):
        chip.deallocate_graph(handle)


def test_graph_shave_mismatch_rejected(micro_graph):
    env = Environment()
    chip = Myriad2(env, Myriad2Config(num_shaves=4))
    # micro_graph was compiled for 12 SHAVEs.
    with pytest.raises(AllocationError):
        chip.allocate_graph(micro_graph)


def test_shave_utilization_recorded(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)
    env.run(until=env.process(chip.run_inference(micro_graph)))
    assert len(chip.shaves) == 12
    # shave0 participates in every layer.
    assert chip.shaves[0].busy_cycles > 0


def test_power_islands_gate_around_inference(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)
    env.run(until=env.process(chip.run_inference(micro_graph)))
    # After the run, SHAVEs are gated again.
    assert not chip.islands._on["shave0"]
    # Energy was consumed during the inference window.
    assert chip.islands.energy_joules() > 0


def test_energy_scales_with_inference_count(micro_graph):
    def run(n):
        env = Environment()
        chip = Myriad2(env)
        chip.allocate_graph(micro_graph)

        def proc():
            for _ in range(n):
                yield from chip.run_inference(micro_graph)

        env.run(until=env.process(proc()))
        return chip.islands.energy_joules()

    assert run(4) == pytest.approx(4 * run(1), rel=0.05)


def test_trace_events_emitted(micro_graph):
    env = Environment()
    trace = TraceRecorder(env)
    chip = Myriad2(env, trace=trace)
    chip.allocate_graph(micro_graph)
    env.run(until=env.process(chip.run_inference(micro_graph)))
    actions = [e.action for e in trace.events]
    assert actions.count("allocate_graph") == 1
    assert actions.count("inference_done") == 1


def test_ddr_traffic_accounted_for_spilled_layers(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)
    env.run(until=env.process(chip.run_inference(micro_graph)))
    spilled = [l for l in micro_graph.layers if not l.tile_plan.fits_cmx]
    if spilled:
        assert chip.dma.bytes_moved > 0
    else:
        assert chip.dma.bytes_moved == 0


def _sequential_end(start, seconds):
    """``start + s1 + ... + sn`` added left to right, as layer-by-layer
    stepping would advance the clock."""
    t = start
    for s in seconds:
        t += s
    return t


def _layer_seconds(graph, freq_hz):
    return [l.total_cycles / freq_hz for l in graph.layers]


def test_inference_end_time_is_sequential_layer_sum(micro_graph):
    seconds = _layer_seconds(micro_graph, Myriad2Config().freq_hz)
    # A start time at which adding the whole-graph total in one step
    # rounds differently from adding the layers one at a time.
    offset = next(k * 0.001 for k in range(1, 10_000)
                  if _sequential_end(k * 0.001, seconds)
                  != k * 0.001 + sum(seconds))
    env = Environment(initial_time=offset)
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)
    env.run(until=env.process(chip.run_inference(micro_graph)))
    assert env.now == _sequential_end(offset, seconds)
    assert env.now != offset + sum(seconds)


def test_per_layer_report_is_cycles_over_clock_in_layer_order(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)
    freq = chip.config.freq_hz
    first = env.run(until=env.process(chip.run_inference(micro_graph)))
    second = env.run(until=env.process(chip.run_inference(micro_graph)))
    expected = {l.name: l.total_cycles / freq for l in micro_graph.layers}
    assert first == expected
    assert list(first) == [l.name for l in micro_graph.layers]
    # Each inference reports its own dict; editing one leaves the next
    # report untouched.
    assert second == expected and second is not first
    first.clear()
    third = env.run(until=env.process(chip.run_inference(micro_graph)))
    assert third == expected


def test_shave_and_dma_accounting_matches_reference_loop(micro_graph):
    n = 3
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)

    def proc():
        for _ in range(n):
            yield from chip.run_inference(micro_graph)

    env.run(until=env.process(proc()))
    busy = [0] * len(chip.shaves)
    kernels = [0] * len(chip.shaves)
    transfers = bytes_moved = 0
    used = min(micro_graph.num_shaves, len(chip.shaves))
    for _ in range(n):
        for sched in micro_graph.layers:
            for i in range(min(sched.assignment.shaves_used, used)):
                busy[i] += sched.timing.compute_cycles
                kernels[i] += 1
            if not sched.tile_plan.fits_cmx:
                transfers += 1
                bytes_moved += sched.tile_plan.ddr_traffic_bytes
    assert [s.busy_cycles for s in chip.shaves] == busy
    assert [s.kernels_run for s in chip.shaves] == kernels
    assert chip.dma.transfers == transfers
    assert chip.dma.bytes_moved == bytes_moved


def test_island_energy_matches_one_island_at_a_time_reference(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)
    windows = []

    def proc():
        for _ in range(3):
            start = env.now
            yield from chip.run_inference(micro_graph)
            windows.append((start, env.now))
            yield env.timeout(0.004)

    env.run(until=env.process(proc()))

    ref_env = Environment()
    ref = PowerIslands(ref_env)
    ref.power_on("risc0")
    names = [f"shave{i}" for i in range(micro_graph.num_shaves)]
    names += ["cmx", "ddr_if"]
    for start, end in windows:
        ref_env.run(until=start)
        for name in names:
            ref.power_on(name)
        ref_env.run(until=end)
        for name in names:
            ref.power_off(name)
    ref_env.run(until=env.now)
    assert chip.islands.energy_joules() == ref.energy_joules()
    assert chip.islands.monitor.maximum() == ref.monitor.maximum()
    assert (chip.islands.monitor.time_average()
            == ref.monitor.time_average())
