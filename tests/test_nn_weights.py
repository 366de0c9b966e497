"""Tests for the npz weight archives (``save_weights`` / ``load_weights``)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.nn import (
    Convolution,
    Network,
    ReLU,
    Softmax,
    get_model,
    initialize_network,
)
from repro.nn.weights import load_weights, save_weights
from repro.tensors import BlobShape


def _tiny_net():
    net = Network("tiny", "data", BlobShape(1, 2, 8, 8))
    net.add(Convolution("conv", "data", "conv", num_output=3,
                        kernel_size=3, in_channels=2, pad=1, stride=1))
    net.add(ReLU("relu", "conv", "conv"))
    net.add(Softmax("prob", "conv", "prob"))
    return net


def test_save_load_weights_roundtrip(tmp_path):
    net = get_model("googlenet-micro")
    initialize_network(net, seed=9)
    path = tmp_path / "weights.npz"
    save_weights(net, path)

    other = get_model("googlenet-micro")
    load_weights(other, path)
    x = np.random.default_rng(1).normal(
        size=(1, 3, 32, 32)).astype(np.float32) * 0.1
    np.testing.assert_allclose(other.forward(x), net.forward(x),
                               rtol=1e-6)


def test_load_weights_strict_mismatch(tmp_path):
    net = get_model("googlenet-micro")
    initialize_network(net)
    path = tmp_path / "w.npz"
    save_weights(net, path)
    other = _tiny_net()
    with pytest.raises(GraphError, match="mismatch"):
        load_weights(other, path)


def test_load_weights_non_strict_partial(tmp_path):
    net = _tiny_net()
    rng = np.random.default_rng(2)
    net.layer("conv").set_params(
        weight=rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
    path = tmp_path / "w.npz"
    save_weights(net, path)
    # A different net with one matching layer name loads just that.
    other = _tiny_net()
    load_weights(other, path, strict=False)
    np.testing.assert_array_equal(other.layer("conv").params["weight"],
                                  net.layer("conv").params["weight"])
