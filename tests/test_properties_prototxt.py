"""Property tests: random layer stacks survive compilation intact.

Hypothesis generates arbitrary valid conv/pool/relu/lrn stacks; every
one must compile to a feasible plan, and the compiled-graph round-trip
(``CompiledGraph.to_bytes`` / ``from_bytes``) must preserve timing and
function.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Convolution,
    LRN,
    Network,
    Pooling,
    PoolMethod,
    ReLU,
    Softmax,
)
from repro.nn.weights import initialize_network
from repro.tensors import BlobShape
from repro.vpu import CompiledGraph, compile_graph

# One random layer step: kind plus its parameters.
_STEP = st.sampled_from(["conv", "pool", "relu", "lrn"])


@st.composite
def random_network(draw):
    """A random but always-valid stack over a random input geometry."""
    size = draw(st.sampled_from([16, 24, 32]))
    channels = draw(st.integers(1, 4))
    net = Network("rand", "data", BlobShape(1, channels, size, size))
    cur_blob = "data"
    cur_c, cur_hw = channels, size
    n_steps = draw(st.integers(1, 6))
    for i in range(n_steps):
        kind = draw(_STEP)
        name = f"{kind}{i}"
        if kind == "conv":
            k = draw(st.sampled_from([1, 3]))
            out_c = draw(st.integers(1, 6))
            net.add(Convolution(name, cur_blob, name,
                                num_output=out_c, kernel_size=k,
                                in_channels=cur_c, pad=k // 2))
            cur_blob, cur_c = name, out_c
        elif kind == "pool" and cur_hw >= 4:
            net.add(Pooling(name, cur_blob, name,
                            method=draw(st.sampled_from(
                                [PoolMethod.MAX, PoolMethod.AVE])),
                            kernel_size=2, stride=2))
            cur_blob = name
            cur_hw = net.infer_shapes()[name].h
        elif kind == "relu":
            net.add(ReLU(name, cur_blob, cur_blob))  # in-place
        elif kind == "lrn" and cur_c >= 1:
            net.add(LRN(name, cur_blob, name))
            cur_blob = name
    net.add(Softmax("prob", cur_blob, "prob"))
    return net


@given(random_network())
@settings(max_examples=25, deadline=None)
def test_property_compiled_graph_roundtrip_preserves_timing(net):
    initialize_network(net)
    g = compile_graph(net)
    g2 = CompiledGraph.from_bytes(g.to_bytes())
    assert g2.total_cycles == g.total_cycles
    assert g2.input_shape == g.input_shape
    s = net.input_shape
    x = np.zeros((1, s.c, s.h, s.w), dtype=np.float32)
    np.testing.assert_array_equal(g.network.forward(x),
                                  g2.network.forward(x))


@given(random_network())
@settings(max_examples=25, deadline=None)
def test_property_random_networks_compile_and_validate(net):
    from repro.vpu.compiler import validate_plan
    initialize_network(net)
    g = compile_graph(net)
    v = validate_plan(g)
    assert v.layers_checked == len(g.layers)
    assert g.inference_seconds > 0
