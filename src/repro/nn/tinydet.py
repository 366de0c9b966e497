"""TinyDet: a synthetic single-shot detection head.

The zoo's other networks are classifiers; multi-model workflows
(:mod:`repro.flow`) need a *detector* in front of them — the
detect→crop→classify cascade is the canonical multi-phase vision
pipeline.  TinyDet is a deliberately small conv head (two conv/pool
blocks and one fully-connected regression layer) whose output vector
encodes ``num_boxes`` candidate boxes as ``(cx, cy, w, h, score)``
tuples.  It compiles through the VPU compiler like any zoo model, so a
detection stage costs realistic simulated time, and it is cheap enough
that a cascade's first phase never dwarfs its second.

Determinism contract: :func:`seeded_detections` draws boxes from a
caller-supplied seeded RNG, so the same inputs always yield the same
boxes and scores, which is what makes workflow runs replay
byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.nn.conv import Convolution
from repro.nn.graph import Network
from repro.nn.inner_product import InnerProduct
from repro.nn.pool import Pooling, PoolMethod
from repro.nn.relu import ReLU
from repro.tensors.layout import BlobShape

#: Values per box in the regression output: cx, cy, w, h, score.
BOX_FIELDS = 5


@dataclass(frozen=True)
class TinyDetConfig:
    """Scale configuration for the TinyDet builder."""

    input_size: int = 64
    num_boxes: int = 4
    width: float = 1.0

    def __post_init__(self) -> None:
        if self.input_size < 16:
            raise GraphError(
                f"input_size must be >= 16 for the two pooled stages, "
                f"got {self.input_size}")
        if self.num_boxes < 1:
            raise GraphError(
                f"num_boxes must be >= 1, got {self.num_boxes}")
        if not 0.0 < self.width <= 1.0:
            raise GraphError(
                f"width must be in (0, 1], got {self.width}")

    def ch(self, base: int) -> int:
        """Scale a channel count by the width multiplier."""
        return max(1, round(base * self.width))


@dataclass(frozen=True)
class Detection:
    """One decoded candidate box in input-pixel coordinates."""

    x: float       #: left edge
    y: float       #: top edge
    w: float       #: width
    h: float       #: height
    score: float   #: confidence in [0, 1]


def build_tinydet(config: TinyDetConfig | None = None) -> Network:
    """Construct the TinyDet network (weights zero-initialised)."""
    cfg = config or TinyDetConfig()
    net = Network(
        name=f"tinydet-w{cfg.width}-{cfg.input_size}px",
        input_blob="data",
        input_shape=BlobShape(1, 3, cfg.input_size, cfg.input_size))

    c16 = cfg.ch(16)
    c32 = cfg.ch(32)
    net.add(Convolution("conv1", "data", "conv1", num_output=c16,
                        kernel_size=3, in_channels=3, stride=2, pad=1))
    net.add(ReLU("relu_conv1", "conv1", "conv1"))
    net.add(Pooling("pool1", "conv1", "pool1", method=PoolMethod.MAX,
                    kernel_size=2, stride=2))
    net.add(Convolution("conv2", "pool1", "conv2", num_output=c32,
                        kernel_size=3, in_channels=c16, pad=1))
    net.add(ReLU("relu_conv2", "conv2", "conv2"))
    net.add(Pooling("pool2", "conv2", "pool2", method=PoolMethod.MAX,
                    kernel_size=2, stride=2))
    s = net.infer_shapes()["pool2"]
    net.add(InnerProduct("det_head", "pool2", "det_head",
                         num_output=BOX_FIELDS * cfg.num_boxes,
                         num_input=s.c * s.h * s.w))
    net.validate()
    return net


def seeded_detections(rng: np.random.Generator, num_boxes: int,
                      input_size: int) -> list[Detection]:
    """Draw a deterministic detection set from a seeded RNG.

    The timing-only oracle for workflow runs whose backends skip real
    inference: between 1 and ``num_boxes`` boxes, geometry and scores
    drawn from ``rng``, sorted by descending score.  The same RNG
    state always yields the same boxes.
    """
    if num_boxes < 1:
        raise GraphError(f"num_boxes must be >= 1, got {num_boxes}")
    count = int(rng.integers(1, num_boxes + 1))
    boxes = []
    for _ in range(count):
        bw = float(rng.uniform(0.125, 1.0)) * input_size
        bh = float(rng.uniform(0.125, 1.0)) * input_size
        boxes.append(Detection(
            x=float(rng.uniform(0.0, input_size - bw)),
            y=float(rng.uniform(0.0, input_size - bh)),
            w=bw, h=bh, score=float(rng.uniform(0.0, 1.0))))
    boxes.sort(key=lambda b: (-b.score, b.x, b.y))
    return boxes
