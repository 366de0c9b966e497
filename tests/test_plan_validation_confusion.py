"""Tests for memory-plan validation."""

import pytest

from repro.errors import CompileError
from repro.nn import build_googlenet, get_model
from repro.nn.weights import initialize_network
from repro.vpu import compile_graph
from repro.vpu.compiler import validate_plan


# --- plan validation -----------------------------------------------------------

@pytest.mark.parametrize("model", ["googlenet-micro", "googlenet-mini",
                                   "alexnet-mini"])
def test_zoo_models_have_feasible_plans(model):
    net = get_model(model)
    initialize_network(net)
    v = validate_plan(compile_graph(net))
    assert v.layers_checked > 10
    assert 0 < v.peak_cmx_fraction <= 0.76  # inside the data budget


def test_paper_scale_plans_feasible():
    for builder in (build_googlenet,
                    lambda: get_model("alexnet")):
        net = builder()
        v = validate_plan(compile_graph(net))
        assert v.peak_cmx_bytes <= v.cmx_capacity
        assert v.ddr_weight_bytes > 1e6


def test_validation_walks_every_layer():
    net = get_model("googlenet-micro")
    initialize_network(net)
    g = compile_graph(net)
    v = validate_plan(g)
    assert v.layers_checked == len(g.layers)


def test_validation_catches_impossible_budget():
    """A graph compiled against a fantasy CMX larger than the real
    chip produces plans the real allocator rejects."""
    net = build_googlenet()
    # Pretend CMX were 16 MiB: big layers plan as CMX-resident.
    g = compile_graph(net, cmx_bytes=16 * 1024 * 1024)
    with pytest.raises(CompileError):
        validate_plan(g)
