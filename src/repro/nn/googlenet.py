"""GoogLeNet (Inception v1) topology builder.

Reproduces the BVLC GoogLeNet *deploy* network used by the paper —
the architecture of Szegedy et al., "Going deeper with convolutions"
(CVPR 2015): a 7x7/2 stem, two LRN layers, nine inception modules
(3a-3b, 4a-4e, 5a-5b), global average pooling, 40% dropout and a
single linear classifier.  The training-time auxiliary classifiers are
not part of the deploy prototxt and are therefore optional here.

Two scale knobs keep the NumPy substrate tractable without changing
the topology:

* ``width`` multiplies every channel count (1.0 = paper scale);
* ``input_size`` sets the input geometry (224 = paper scale).  The
  final pool is *global*, so any input size the stem can reduce works.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GraphError
from repro.nn.concat import Concat
from repro.nn.conv import Convolution
from repro.nn.dropout import Dropout
from repro.nn.graph import Network
from repro.nn.inner_product import InnerProduct
from repro.nn.lrn import LRN
from repro.nn.pool import Pooling, PoolMethod
from repro.nn.relu import ReLU
from repro.nn.softmax import Softmax
from repro.tensors.layout import BlobShape

#: (1x1, 3x3reduce, 3x3, 5x5reduce, 5x5, pool_proj) per inception module,
#: exactly the BVLC GoogLeNet channel table.
INCEPTION_TABLE: dict[str, tuple[int, int, int, int, int, int]] = {
    "3a": (64, 96, 128, 16, 32, 32),
    "3b": (128, 128, 192, 32, 96, 64),
    "4a": (192, 96, 208, 16, 48, 64),
    "4b": (160, 112, 224, 24, 64, 64),
    "4c": (128, 128, 256, 24, 64, 64),
    "4d": (112, 144, 288, 32, 64, 64),
    "4e": (256, 160, 320, 32, 128, 128),
    "5a": (256, 160, 320, 32, 128, 128),
    "5b": (384, 192, 384, 48, 128, 128),
}

#: Inception modules after which a 3x3/2 max pool follows.
_POOL_AFTER = {"3b": "pool3", "4e": "pool4"}


@dataclass(frozen=True)
class GoogLeNetConfig:
    """Scale configuration for the GoogLeNet builder."""

    num_classes: int = 1000
    input_size: int = 224
    width: float = 1.0
    include_lrn: bool = True

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise GraphError("num_classes must be >= 2")
        if self.input_size < 32:
            raise GraphError(
                f"input_size must be >= 32 so the stem can reduce it, "
                f"got {self.input_size}")
        if not 0.0 < self.width <= 1.0:
            raise GraphError(f"width must be in (0, 1], got {self.width}")

    def ch(self, base: int) -> int:
        """Scale a channel count by the width multiplier (min 1)."""
        return max(1, round(base * self.width))


def _conv_relu(net: Network, name: str, bottom: str, *, num_output: int,
               kernel: int, in_channels: int, stride: int = 1,
               pad: int = 0) -> str:
    """Append conv + in-place ReLU; returns the top blob name."""
    net.add(Convolution(name, bottom, name, num_output=num_output,
                        kernel_size=kernel, in_channels=in_channels,
                        stride=stride, pad=pad))
    net.add(ReLU(f"relu_{name}", name, name))
    return name


def _inception(net: Network, tag: str, bottom: str, in_channels: int,
               cfg: GoogLeNetConfig) -> tuple[str, int]:
    """Append one inception module; returns (top blob, out channels)."""
    c1, c3r, c3, c5r, c5, cp = (cfg.ch(v) for v in INCEPTION_TABLE[tag])
    p = f"inception_{tag}"

    b1 = _conv_relu(net, f"{p}/1x1", bottom, num_output=c1, kernel=1,
                    in_channels=in_channels)

    b3r = _conv_relu(net, f"{p}/3x3_reduce", bottom, num_output=c3r,
                     kernel=1, in_channels=in_channels)
    b3 = _conv_relu(net, f"{p}/3x3", b3r, num_output=c3, kernel=3,
                    in_channels=c3r, pad=1)

    b5r = _conv_relu(net, f"{p}/5x5_reduce", bottom, num_output=c5r,
                     kernel=1, in_channels=in_channels)
    b5 = _conv_relu(net, f"{p}/5x5", b5r, num_output=c5, kernel=5,
                    in_channels=c5r, pad=2)

    net.add(Pooling(f"{p}/pool", bottom, f"{p}/pool",
                    method=PoolMethod.MAX, kernel_size=3, stride=1, pad=1))
    bp = _conv_relu(net, f"{p}/pool_proj", f"{p}/pool", num_output=cp,
                    kernel=1, in_channels=in_channels)

    top = f"{p}/output"
    net.add(Concat(top, [b1, b3, b5, bp], top))
    return top, c1 + c3 + c5 + cp


def build_googlenet(config: GoogLeNetConfig | None = None) -> Network:
    """Construct the GoogLeNet deploy network (weights zero-initialised).

    Use :func:`repro.nn.weights.initialize_network` or a
    :class:`~repro.nn.weights.WeightStore` to install the synthetic
    pre-trained parameters.
    """
    cfg = config or GoogLeNetConfig()
    net = Network(
        name=f"googlenet-w{cfg.width}-{cfg.input_size}px",
        input_blob="data",
        input_shape=BlobShape(1, 3, cfg.input_size, cfg.input_size))

    # --- stem ------------------------------------------------------------
    c64, c192 = cfg.ch(64), cfg.ch(192)
    top = _conv_relu(net, "conv1/7x7_s2", "data", num_output=c64,
                     kernel=7, in_channels=3, stride=2, pad=3)
    net.add(Pooling("pool1/3x3_s2", top, "pool1/3x3_s2",
                    method=PoolMethod.MAX, kernel_size=3, stride=2))
    top = "pool1/3x3_s2"
    if cfg.include_lrn:
        net.add(LRN("pool1/norm1", top, "pool1/norm1"))
        top = "pool1/norm1"
    top = _conv_relu(net, "conv2/3x3_reduce", top, num_output=c64,
                     kernel=1, in_channels=c64)
    top = _conv_relu(net, "conv2/3x3", top, num_output=c192, kernel=3,
                     in_channels=c64, pad=1)
    if cfg.include_lrn:
        net.add(LRN("conv2/norm2", top, "conv2/norm2"))
        top = "conv2/norm2"
    net.add(Pooling("pool2/3x3_s2", top, "pool2/3x3_s2",
                    method=PoolMethod.MAX, kernel_size=3, stride=2))
    top = "pool2/3x3_s2"

    # --- nine inception modules with interleaved pools ---------------------
    channels = c192
    for tag in INCEPTION_TABLE:
        top, channels = _inception(net, tag, top, channels, cfg)
        if tag in _POOL_AFTER:
            pool_name = f"{_POOL_AFTER[tag]}/3x3_s2"
            net.add(Pooling(pool_name, top, pool_name,
                            method=PoolMethod.MAX, kernel_size=3,
                            stride=2))
            top = pool_name

    # --- head ----------------------------------------------------------------
    net.add(Pooling("pool5/drop_in", top, "pool5/drop_in",
                    method=PoolMethod.AVE, global_pooling=True))
    net.add(Dropout("pool5/drop_7x7_s1", "pool5/drop_in",
                    "pool5/drop_7x7_s1", dropout_ratio=0.4))
    net.add(InnerProduct("loss3/classifier", "pool5/drop_7x7_s1",
                         "loss3/classifier", num_output=cfg.num_classes,
                         num_input=channels))
    net.add(Softmax("prob", "loss3/classifier", "prob"))

    net.validate()
    return net


def feature_blob_name() -> str:
    """Blob holding the pre-classifier feature vector (after dropout)."""
    return "pool5/drop_7x7_s1"
