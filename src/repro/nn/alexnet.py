"""AlexNet (Krizhevsky et al., 2012) deploy topology.

The Neural Compute Stick's standard benchmark set pairs GoogLeNet with
AlexNet (the Dexmont et al. robotics benchmarking study the paper
cites runs both); having a second topology also exercises grouped
convolutions and the giant-FC tiling path that GoogLeNet never hits —
fc6's ~37M parameters dwarf the 2 MB CMX and must stream from DDR.

Geometry follows the BVLC ``deploy.prototxt``: 227x227 input, grouped
conv2/4/5, two LRNs, three max pools, fc6/fc7 (4096) and the 1000-way
classifier.  Like the GoogLeNet builder, ``width`` scales channels and
``input_size`` the geometry; the FC sizes derive from the actual
flattened shape so any valid input size works.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GraphError
from repro.nn.conv import Convolution
from repro.nn.dropout import Dropout
from repro.nn.graph import Network
from repro.nn.inner_product import InnerProduct
from repro.nn.lrn import LRN
from repro.nn.pool import Pooling, PoolMethod
from repro.nn.relu import ReLU
from repro.nn.softmax import Softmax
from repro.tensors.layout import BlobShape


@dataclass(frozen=True)
class AlexNetConfig:
    """Scale configuration for the AlexNet builder."""

    num_classes: int = 1000
    input_size: int = 227
    width: float = 1.0
    include_lrn: bool = True

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise GraphError("num_classes must be >= 2")
        if self.input_size < 63:
            raise GraphError(
                f"input_size must be >= 63 for the 11x11/4 stem, got "
                f"{self.input_size}")
        if not 0.0 < self.width <= 1.0:
            raise GraphError(f"width must be in (0, 1], got {self.width}")

    def ch(self, base: int, group: int = 1) -> int:
        """Scale a channel count, keeping it divisible by *group*."""
        scaled = max(group, round(base * self.width))
        return scaled - scaled % group or group


def build_alexnet(config: AlexNetConfig | None = None) -> Network:
    """Construct the AlexNet deploy network (weights zero-initialised)."""
    cfg = config or AlexNetConfig()
    net = Network(
        name=f"alexnet-w{cfg.width}-{cfg.input_size}px",
        input_blob="data",
        input_shape=BlobShape(1, 3, cfg.input_size, cfg.input_size))

    def conv_relu(name, bottom, *, num_output, kernel, in_channels,
                  stride=1, pad=0, group=1):
        net.add(Convolution(name, bottom, name, num_output=num_output,
                            kernel_size=kernel, in_channels=in_channels,
                            stride=stride, pad=pad, group=group))
        net.add(ReLU(f"relu_{name}", name, name))
        return name

    # conv1 feeds the grouped conv2, so its width-scaled channel count
    # must stay divisible by the group as well.
    c96 = cfg.ch(96, group=2)
    c256 = cfg.ch(256, group=2)
    c384 = cfg.ch(384, group=2)
    fc_dim = cfg.ch(4096)

    top = conv_relu("conv1", "data", num_output=c96, kernel=11,
                    in_channels=3, stride=4)
    if cfg.include_lrn:
        net.add(LRN("norm1", top, "norm1"))
        top = "norm1"
    net.add(Pooling("pool1", top, "pool1", method=PoolMethod.MAX,
                    kernel_size=3, stride=2))
    top = "pool1"

    top = conv_relu("conv2", top, num_output=c256, kernel=5,
                    in_channels=c96, pad=2, group=2)
    if cfg.include_lrn:
        net.add(LRN("norm2", top, "norm2"))
        top = "norm2"
    net.add(Pooling("pool2", top, "pool2", method=PoolMethod.MAX,
                    kernel_size=3, stride=2))
    top = "pool2"

    top = conv_relu("conv3", top, num_output=c384, kernel=3,
                    in_channels=c256, pad=1)
    top = conv_relu("conv4", top, num_output=c384, kernel=3,
                    in_channels=c384, pad=1, group=2)
    top = conv_relu("conv5", top, num_output=c256, kernel=3,
                    in_channels=c384, pad=1, group=2)
    net.add(Pooling("pool5", top, "pool5", method=PoolMethod.MAX,
                    kernel_size=3, stride=2))
    top = "pool5"

    s = net.infer_shapes()[top]
    flat = s.c * s.h * s.w
    net.add(InnerProduct("fc6", top, "fc6", num_output=fc_dim,
                         num_input=flat))
    net.add(ReLU("relu_fc6", "fc6", "fc6"))
    net.add(Dropout("drop6", "fc6", "fc6", dropout_ratio=0.5))
    net.add(InnerProduct("fc7", "fc6", "fc7", num_output=fc_dim,
                         num_input=fc_dim))
    net.add(ReLU("relu_fc7", "fc7", "fc7"))
    net.add(Dropout("drop7", "fc7", "fc7", dropout_ratio=0.5))
    net.add(InnerProduct("fc8", "fc7", "fc8",
                         num_output=cfg.num_classes, num_input=fc_dim))
    net.add(Softmax("prob", "fc8", "prob"))

    net.validate()
    return net
