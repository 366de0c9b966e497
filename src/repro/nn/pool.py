"""Max and average pooling with Caffe ceil-mode geometry."""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.layer import Layer, register_layer
from repro.tensors.layout import BlobShape, pool_output_hw


class PoolMethod(enum.Enum):
    """Pooling operators supported by Caffe's ``PoolingParameter``."""

    MAX = "max"
    AVE = "ave"


@register_layer
class Pooling(Layer):
    """Spatial pooling.

    ``global_pooling=True`` pools the whole feature map regardless of
    input size (Caffe's ``global_pooling``), used for GoogLeNet's final
    average pool so the topology works at any input geometry.

    Average pooling uses *inclusive* counting over the padded window
    (Caffe's historical behaviour).
    """

    def __init__(self, name: str, bottom: str, top: str, *,
                 method: PoolMethod = PoolMethod.MAX,
                 kernel_size: int = 2, stride: int = 1, pad: int = 0,
                 global_pooling: bool = False) -> None:
        super().__init__(name, [bottom], [top])
        self.method = method
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        self.global_pooling = global_pooling
        if global_pooling and pad != 0:
            raise ShapeError(f"{name}: global pooling cannot be padded")

    @property
    def selects_inputs(self) -> bool:
        """Max pooling picks a window element (or the -inf pad);
        average pooling sums and divides."""
        return self.method is PoolMethod.MAX

    def _geometry(self, s: BlobShape) -> tuple[int, int, int]:
        """(kernel_h==kernel_w, stride, pad) resolved for this input."""
        if self.global_pooling:
            if s.h != s.w:
                raise ShapeError(
                    f"{self.name}: global pooling needs square input, "
                    f"got {s.h}x{s.w}")
            return s.h, 1, 0
        return self.kernel_size, self.stride, self.pad

    def output_shapes(
            self, input_shapes: Sequence[BlobShape]) -> list[BlobShape]:
        self._expect_bottoms(input_shapes, 1)
        s = input_shapes[0]
        k, stride, pad = self._geometry(s)
        oh, ow = pool_output_hw(s.h, s.w, k, stride, pad)
        return [BlobShape(s.n, s.c, oh, ow)]

    def forward(self, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        x = inputs[0]
        n, c, h, w = x.shape
        k, stride, pad = self._geometry(BlobShape(n, c, h, w))
        oh, ow = pool_output_hw(h, w, k, stride, pad)
        # Rows and columns the windows reach, counted from the top-left
        # padded cell; ceil mode can run past the padded input.
        need_h = stride * (oh - 1) + k
        need_w = stride * (ow - 1) + k
        if pad == 0 and need_h <= h and need_w <= w:
            xp = x
        else:
            fill = (np.float32(-np.inf) if self.method is PoolMethod.MAX
                    else np.float32(0.0))
            xp = np.full((n, c, max(need_h, pad + h), max(need_w, pad + w)),
                         fill, dtype=x.dtype)
            xp[:, :, pad:pad + h, pad:pad + w] = x

        if self.method is PoolMethod.MAX:
            # Separable: a running max along each row, then down each
            # column -- 2k strided passes instead of k*k.  Max is exact
            # and the fold keeps the (row, column) order of the k*k
            # windows, so ties and NaNs resolve to the same element.
            rows = _running_max([
                xp[:, :, :need_h, dj:dj + stride * (ow - 1) + 1:stride]
                for dj in range(k)])
            return [_running_max([
                rows[:, :, di:di + stride * (oh - 1) + 1:stride]
                for di in range(k)])]
        # Average pooling stacks the k*k window views and uses NumPy's
        # pairwise sum, so the rounding order stays fixed.
        stack = np.empty((k * k, n, c, oh, ow), dtype=x.dtype)
        for di in range(k):
            for dj in range(k):
                stack[di * k + dj] = xp[
                    :, :, di:di + stride * (oh - 1) + 1:stride,
                    dj:dj + stride * (ow - 1) + 1:stride]
        # Caffe averages over the full k*k window including padding.
        return [stack.sum(axis=0) / np.float32(k * k)]

    def macs(self, input_shapes: Sequence[BlobShape]) -> int:
        out = self.output_shapes(input_shapes)[0]
        s = input_shapes[0]
        k, _, _ = self._geometry(s)
        return out.count * k * k


def _running_max(views: list[np.ndarray]) -> np.ndarray:
    """Elementwise maximum of *views* folded left to right, as a new
    array."""
    if len(views) == 1:
        return np.array(views[0])
    out = np.maximum(views[0], views[1])
    for view in views[2:]:
        np.maximum(out, view, out=out)
    return out
