"""Fully-connected (Caffe ``InnerProduct``) layer."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layer import Layer, register_layer
from repro.tensors.layout import BlobShape


@register_layer
class InnerProduct(Layer):
    """``y = W @ flatten(x) + b``; GoogLeNet's 1024->1000 classifier."""

    def __init__(self, name: str, bottom: str, top: str, *,
                 num_output: int, num_input: int) -> None:
        super().__init__(name, [bottom], [top])
        if num_output < 1 or num_input < 1:
            raise ValueError(f"{name}: dimensions must be >= 1")
        self.num_output = num_output
        self.num_input = num_input
        self.params = {
            "weight": np.zeros((num_output, num_input), dtype=np.float32),
            "bias": np.zeros(num_output, dtype=np.float32),
        }

    def output_shapes(
            self, input_shapes: Sequence[BlobShape]) -> list[BlobShape]:
        self._expect_bottoms(input_shapes, 1)
        s = input_shapes[0]
        flat = s.c * s.h * s.w
        if flat != self.num_input:
            from repro.errors import ShapeError
            raise ShapeError(
                f"{self.name}: flattened input {flat} != num_input "
                f"{self.num_input}")
        return [BlobShape(s.n, self.num_output, 1, 1)]

    def forward(self, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        # One vector-matrix product per image, as a batch of one runs:
        # a single GEMM over N rows lets BLAS pick a kernel by N and
        # round differently, so a row would depend on its batch.
        x = inputs[0]
        rows = x.reshape(x.shape[0], 1, -1)
        out = (np.matmul(rows, self.params["weight"].T)[:, 0]
               + self.params["bias"])
        return [out.reshape(x.shape[0], self.num_output, 1, 1)]

    def macs(self, input_shapes: Sequence[BlobShape]) -> int:
        return input_shapes[0].n * self.num_output * self.num_input
