"""The FP16 executor skips only roundings that cannot change a value.

``Network.forward_with_blobs`` leaves the output of a selecting layer
(max pooling, plain ReLU, Concat, Dropout) unrounded when every bottom
already holds binary16 values.  These tests hold it to a reference
sweep that rounds every layer output with NumPy's own binary16 casts:
every blob must match bit for bit under the full FP16 policy, under a
per-layer ablation filter and with an unrounded network input.
"""

import numpy as np
import pytest

from repro.nn import (
    LRN,
    Concat,
    Convolution,
    Dropout,
    InnerProduct,
    Network,
    Pooling,
    PoolMethod,
    ReLU,
    Softmax,
    get_model,
    initialize_network,
)
from repro.numerics import PrecisionPolicy
from repro.numerics.quant import Precision
from repro.tensors import BlobShape


def _cast_round_trip(x):
    """NumPy's float32 -> float16 -> float32 casts."""
    return np.asarray(x, dtype=np.float32).astype(np.float16).astype(
        np.float32)


def _round_every_output(net, x, policy):
    """Unfused sweep rounding every layer output the policy covers."""
    x = np.asarray(x, dtype=np.float32)
    if policy.quantize_input_blob:
        x = _cast_round_trip(x)
    blobs = {net.input_blob: x}
    for layer in net.layers:
        applies = policy.applies_to(layer.name)
        saved = layer.params
        if applies and policy.quantize_weights:
            layer.params = {role: _cast_round_trip(arr)
                            for role, arr in saved.items()}
        try:
            outputs = layer.forward([blobs[b] for b in layer.bottoms])
        finally:
            layer.params = saved
        for top, out in zip(layer.tops, outputs):
            out = np.asarray(out, dtype=np.float32)
            if applies and policy.quantize_activations:
                out = _cast_round_trip(out)
            blobs[top] = out
    return blobs


def _mixed_net():
    """Every layer type, selecting or not, behind a max-pool input."""
    net = Network("mixed", "data", BlobShape(1, 4, 12, 12))
    net.add(Pooling("pool0", "data", "p0", method=PoolMethod.MAX,
                    kernel_size=2, stride=2))
    net.add(Convolution("conv1", "p0", "c1", num_output=6,
                        kernel_size=3, in_channels=4, pad=1))
    net.add(ReLU("relu1", "c1", "c1"))
    net.add(LRN("norm1", "c1", "n1", local_size=3))
    net.add(Convolution("conv2", "n1", "c2", num_output=5,
                        kernel_size=1, in_channels=6))
    net.add(ReLU("leaky2", "c2", "r2", negative_slope=0.1))
    net.add(Pooling("ave1", "c1", "a1", method=PoolMethod.AVE,
                    kernel_size=3, stride=1, pad=1))
    net.add(Concat("cat", ["c1", "r2", "a1"], "cat"))
    net.add(Pooling("pool2", "cat", "pm", method=PoolMethod.MAX,
                    kernel_size=3, stride=2))
    net.add(Dropout("drop", "pm", "d"))
    net.add(InnerProduct("fc", "d", "fc", num_output=7,
                         num_input=17 * 3 * 3))
    net.add(ReLU("relu_fc", "fc", "fcr"))
    net.add(Softmax("prob", "fcr", "prob"))
    net.validate()
    initialize_network(net, seed=3)
    return net


def _micro_net():
    net = get_model("googlenet-micro")
    initialize_network(net, seed=1)
    return net


def _policies(net, left_out):
    """The policies the executor must honour, by name."""
    kept = {l.name for l in net.layers} - set(left_out)
    return {
        "fp16": PrecisionPolicy.fp16(),
        "fp16_only": PrecisionPolicy.fp16_only(kept),
        "unrounded_input": PrecisionPolicy(
            Precision.FP16, True, True, quantize_input=False),
        "fp32": PrecisionPolicy.fp32(),
    }


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _assert_blobs_match(net, x, policy):
    want = _round_every_output(net, x, policy)
    everything = [b for b in want if b != net.input_blob]
    out, got = net.forward_with_blobs(x, policy, capture=everything)
    assert np.array_equal(_bits(out), _bits(want[net.output_blob]))
    for blob in everything:
        assert np.array_equal(_bits(got[blob]), _bits(want[blob])), blob
    # Without captures the Conv+ReLU steps fuse; the output still
    # matches.
    assert np.array_equal(_bits(net.forward(x, policy)),
                          _bits(want[net.output_blob]))


# Left out of the ablation filter: a conv (and its ReLU) whose Concat
# consumer stays in, so that Concat sees a bottom off the grid.
_CASES = {
    "mixed": (_mixed_net, ("conv2", "leaky2")),
    "micro": (_micro_net, ("inception_3a/3x3",
                           "relu_inception_3a/3x3")),
}


@pytest.mark.parametrize(
    "policy_name", ["fp16", "fp16_only", "unrounded_input", "fp32"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_forward_matches_rounding_every_layer(case, policy_name):
    build, left_out = _CASES[case]
    net = build()
    shape = net.input_shape
    # Inputs off the binary16 grid, so an unrounded input blob is not
    # mistaken for one on it.
    x = np.random.default_rng(7).normal(
        scale=3.0, size=(2, shape.c, shape.h, shape.w)).astype(
            np.float32)
    _assert_blobs_match(net, x, _policies(net, left_out)[policy_name])


def test_only_selecting_layers_claim_to_select():
    net = _mixed_net()
    selecting = {l.name for l in net.layers if l.selects_inputs}
    assert selecting == {"pool0", "relu1", "pool2", "cat", "drop",
                         "relu_fc"}


def test_fp16_forward_rounds_only_where_a_value_can_change(monkeypatch):
    import repro.numerics.quant as quant

    rounded = []
    real = quant.round_fp16

    def counting(a):
        rounded.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(quant, "round_fp16", counting)
    net = _mixed_net()
    net.forward(np.ones((1, 4, 12, 12), np.float32),
                PrecisionPolicy.fp16())
    # Input, 3 weighted layers x 2 params, conv1, norm1, conv2,
    # leaky2, ave1, fc, prob: the six selecting layers round nothing.
    assert len(rounded) == 1 + 3 * 2 + 7
