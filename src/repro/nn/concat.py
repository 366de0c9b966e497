"""Channel concatenation (the join at the end of every inception module)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.layer import Layer, register_layer
from repro.tensors.layout import BlobShape


@register_layer
class Concat(Layer):
    """Concatenate bottoms along the channel axis."""

    selects_inputs = True

    def __init__(self, name: str, bottoms: Sequence[str],
                 top: str) -> None:
        if len(bottoms) < 2:
            raise ShapeError(f"{name}: concat needs >= 2 inputs")
        super().__init__(name, bottoms, [top])

    def output_shapes(
            self, input_shapes: Sequence[BlobShape]) -> list[BlobShape]:
        self._expect_bottoms(input_shapes, len(self.bottoms))
        first = input_shapes[0]
        for s in input_shapes[1:]:
            if (s.n, s.h, s.w) != (first.n, first.h, first.w):
                raise ShapeError(
                    f"{self.name}: incompatible concat shapes "
                    f"{first} vs {s}")
        channels = sum(s.c for s in input_shapes)
        return [BlobShape(first.n, channels, first.h, first.w)]

    def forward(self, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [np.concatenate(list(inputs), axis=1)]

    def macs(self, input_shapes: Sequence[BlobShape]) -> int:
        return 0  # pure data movement
