"""Rectified linear unit."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layer import Layer, register_layer
from repro.tensors.layout import BlobShape


@register_layer
class ReLU(Layer):
    """Element-wise ``max(0, x)``.

    Supports Caffe's ``negative_slope`` for leaky variants (0 = plain
    ReLU, the GoogLeNet default).
    """

    def __init__(self, name: str, bottom: str, top: str, *,
                 negative_slope: float = 0.0) -> None:
        super().__init__(name, [bottom], [top])
        self.negative_slope = float(negative_slope)

    @property
    def selects_inputs(self) -> bool:
        """Plain ReLU picks ``x`` or 0; a leaky slope multiplies."""
        return self.negative_slope == 0.0

    def output_shapes(
            self, input_shapes: Sequence[BlobShape]) -> list[BlobShape]:
        self._expect_bottoms(input_shapes, 1)
        return [input_shapes[0]]

    def forward(self, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        x = inputs[0]
        if self.negative_slope == 0.0:
            return [np.maximum(x, 0.0)]
        return [np.where(x > 0, x, x * self.negative_slope).astype(
            x.dtype, copy=False)]

    def macs(self, input_shapes: Sequence[BlobShape]) -> int:
        # One compare per element; count as one op for roofline purposes.
        return input_shapes[0].count
