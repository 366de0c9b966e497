"""Dropout — identity at inference time.

Caffe scales activations during *training* only; the deploy network
(which is all the NCS, CPU and GPU paths run) passes data through
unchanged.  The layer exists so the GoogLeNet deploy topology matches
the prototxt layer-for-layer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layer import Layer, register_layer
from repro.tensors.layout import BlobShape


@register_layer
class Dropout(Layer):
    """Inference-mode dropout (identity)."""

    selects_inputs = True

    def __init__(self, name: str, bottom: str, top: str, *,
                 dropout_ratio: float = 0.5) -> None:
        super().__init__(name, [bottom], [top])
        if not 0.0 <= dropout_ratio < 1.0:
            raise ValueError(
                f"{name}: dropout_ratio must be in [0, 1), got "
                f"{dropout_ratio}")
        self.dropout_ratio = float(dropout_ratio)

    def output_shapes(
            self, input_shapes: Sequence[BlobShape]) -> list[BlobShape]:
        self._expect_bottoms(input_shapes, 1)
        return [input_shapes[0]]

    def forward(self, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [inputs[0]]

    def macs(self, input_shapes: Sequence[BlobShape]) -> int:
        return 0
