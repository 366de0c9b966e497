"""Tests for the split-inference partitioner (cuts, costs, plans)."""

import pytest

from repro.nn.zoo import get_model


# -- precision-aware cost table (satellite bugfix) --------------------------

def test_layer_costs_param_bytes_agree_with_total_param_bytes():
    """``layer_costs`` must honour the precision it is asked for
    (regression: ``LayerCost.param_bytes`` was always built at the
    4-byte default, disagreeing with the layers' own 2-byte
    ``param_bytes`` and double-counting FP16-tier bytes in the
    partitioner)."""
    net = get_model("googlenet-micro")
    fp16 = net.layer_costs(bytes_per_element=2)
    assert (sum(c.param_bytes for c in fp16)
            == sum(layer.param_bytes(2) for layer in net.layers))
    fp32 = net.layer_costs()
    assert (sum(c.param_bytes for c in fp32)
            == sum(layer.param_bytes(4) for layer in net.layers))
    # FP16 params are exactly half the FP32 footprint.
    assert (2 * sum(c.param_bytes for c in fp16)
            == sum(c.param_bytes for c in fp32))


def test_layer_costs_activation_bytes_follow_precision():
    net = get_model("googlenet-micro")
    fp16 = net.layer_costs(bytes_per_element=2)
    fp32 = net.layer_costs(bytes_per_element=4)
    assert (2 * sum(c.activation_bytes for c in fp16)
            == sum(c.activation_bytes for c in fp32))
    # MACs are precision-independent.
    assert ([c.macs for c in fp16] == [c.macs for c in fp32])


# -- cut enumeration --------------------------------------------------------

import numpy as np

from repro.baselines.calibration import REFERENCE_GOOGLENET_MACS, mac_scale
from repro.errors import GraphError, SimulationError
from repro.nn.weights import initialize_network
from repro.split import (
    SplitPlanner,
    dominating_plans,
    enumerate_cuts,
    pareto_indices,
    single_device_points,
    split_network,
    usb_seconds,
)
from repro.vpu.compiler.compile import compile_graph


@pytest.fixture(scope="module")
def micro():
    return get_model("googlenet-micro")


@pytest.fixture(scope="module")
def micro_graph(micro):
    return compile_graph(micro)


def test_cuts_partition_layers_in_order(micro):
    names = [l.name for l in micro.layers]
    cuts = enumerate_cuts(micro)
    assert cuts, "googlenet-micro must have valid cuts"
    for cut in cuts:
        assert list(cut.front_names) + list(cut.back_names) == names
        assert cut.front_names[-1] == names[cut.index]
    # Strictly increasing cut indices (layer order).
    indices = [c.index for c in cuts]
    assert indices == sorted(set(indices))


def test_inception_interiors_are_not_cuttable(micro):
    """Multi-branch frontiers (inside an inception module) never show
    up as cuts — more than one blob would have to cross the wire."""
    for cut in enumerate_cuts(micro):
        if "inception" in cut.blob:
            assert cut.blob.endswith("/output"), cut.blob


def test_cut_blob_is_produced_by_front_and_read_by_back(micro):
    for cut in enumerate_cuts(micro):
        front, back = split_network(micro, cut)
        assert cut.blob in {t for l in front.layers for t in l.tops}
        assert back.input_blob == cut.blob
        # Both halves have consistent shapes end to end.
        front.validate()
        back.validate()


def test_split_network_rejects_mismatched_cut(micro):
    cuts = enumerate_cuts(micro)
    bogus = cuts[0].__class__(
        index=cuts[1].index, blob=cuts[0].blob,
        front_names=cuts[0].front_names, back_names=cuts[0].back_names)
    with pytest.raises(GraphError):
        split_network(micro, bogus)


# -- cost model -------------------------------------------------------------

def test_mac_scale_reference_is_unity():
    assert mac_scale(REFERENCE_GOOGLENET_MACS) == 1.0
    assert mac_scale(REFERENCE_GOOGLENET_MACS // 2) == pytest.approx(0.5)
    with pytest.raises(SimulationError):
        mac_scale(-1)


def test_usb_seconds_has_latency_floor():
    assert usb_seconds(0) == pytest.approx(150e-6)
    assert usb_seconds(4 << 20) > usb_seconds(1 << 20)


def test_planner_requires_exactly_one_vpu_side(micro, micro_graph):
    with pytest.raises(SimulationError):
        SplitPlanner(micro, graph=micro_graph, front="cpu", back="gpu")
    with pytest.raises(SimulationError):
        SplitPlanner(micro, graph=micro_graph, front="vpu", back="vpu")
    with pytest.raises(SimulationError):
        SplitPlanner(micro, graph=micro_graph, front="vpu",
                     back="cpu", num_sticks=9)


def test_plan_invariants(micro, micro_graph):
    planner = SplitPlanner(micro, graph=micro_graph, front="vpu",
                           back="cpu", num_sticks=4)
    for plan in planner.sweep():
        assert plan.latency_seconds == pytest.approx(
            plan.front_seconds + plan.link_seconds
            + plan.back_seconds)
        assert plan.throughput == pytest.approx(
            1.0 / plan.bottleneck_seconds)
        assert plan.front_parallelism == 4
        assert plan.back_parallelism == 1
        assert plan.total_watts == pytest.approx(4 * 2.5 + 80.0)
        assert plan.cut_bytes > 0
        assert plan.name == "vpu4+cpu"


def test_vpu_back_orientation(micro, micro_graph):
    planner = SplitPlanner(micro, graph=micro_graph, front="gpu",
                           back="vpu", num_sticks=2)
    plans = planner.sweep()
    assert plans
    for plan in plans:
        assert plan.front_device == "gpu"
        assert plan.back_parallelism == 2
        assert plan.name == "gpu+vpu2"
        # The VPU side carries the output USB transfer.
        assert plan.back_seconds >= usb_seconds(0)


def test_sweep_is_deterministic(micro, micro_graph):
    planner = SplitPlanner(micro, graph=micro_graph)
    assert planner.sweep() == planner.sweep()
    assert (SplitPlanner(micro, graph=micro_graph).sweep()
            == planner.sweep())


def test_best_objectives(micro, micro_graph):
    planner = SplitPlanner(micro, graph=micro_graph)
    plans = planner.sweep()
    best_lat = planner.best("latency")
    assert best_lat.latency_seconds == min(
        p.latency_seconds for p in plans)
    best_tput = planner.best("throughput")
    assert best_tput.throughput == max(p.throughput for p in plans)
    best_eff = planner.best("energy")
    assert best_eff.images_per_watt == max(
        p.images_per_watt for p in plans)
    with pytest.raises(SimulationError):
        planner.best("nonsense")


def test_pareto_contains_every_objective_winner(micro, micro_graph):
    planner = SplitPlanner(micro, graph=micro_graph)
    plans = planner.sweep()
    frontier = pareto_indices(plans)
    assert frontier
    # The optimal value of every objective is achieved on the
    # frontier (the winner itself may lose a tie-break to an equal
    # plan with a better second metric, but the value survives).
    assert min(plans[i].latency_seconds for i in frontier) == min(
        p.latency_seconds for p in plans)
    assert max(plans[i].throughput for i in frontier) == max(
        p.throughput for p in plans)
    assert max(plans[i].images_per_watt for i in frontier) == max(
        p.images_per_watt for p in plans)


def test_best_cut_dominates_worst_single_device(micro, micro_graph):
    """The acceptance claim: at least one VPU+CPU cut strictly beats
    the worst single-device placement on latency at matched
    throughput."""
    planner = SplitPlanner(micro, graph=micro_graph, front="vpu",
                           back="cpu", num_sticks=1)
    plans = planner.sweep()
    singles = single_device_points(micro, micro_graph, num_sticks=1)
    worst, winners = dominating_plans(plans, singles)
    assert worst is not None
    assert winners, "no cut dominates the worst single device"
    for plan in winners:
        assert plan.latency_seconds < worst.latency_seconds
        assert plan.throughput >= worst.throughput
