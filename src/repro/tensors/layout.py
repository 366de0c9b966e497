"""Shape and layout arithmetic for NCHW blobs.

All geometry formulas match Caffe's conventions, since both the paper's
CPU/GPU baselines and the NCSDK consume Caffe models:

* convolution output:  ``floor((in + 2*pad - kernel) / stride) + 1``
* pooling output:      ``ceil((in + 2*pad - kernel) / stride) + 1``
  (Caffe uses ceil for pooling, which is why GoogLeNet's pool layers
  sometimes emit one extra row/column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ShapeError


@dataclass(frozen=True)
class BlobShape:
    """Shape of a 4-D NCHW blob."""

    n: int
    c: int
    h: int
    w: int

    def __post_init__(self) -> None:
        for name, v in (("n", self.n), ("c", self.c),
                        ("h", self.h), ("w", self.w)):
            if v < 1:
                raise ShapeError(f"BlobShape.{name} must be >= 1, got {v}")

    @property
    def count(self) -> int:
        """Total number of elements."""
        return self.n * self.c * self.h * self.w

    def nbytes(self, bytes_per_element: int = 4) -> int:
        """Size of the blob in bytes at the given element width."""
        return self.count * bytes_per_element

    def with_batch(self, n: int) -> "BlobShape":
        """Same shape with a different batch dimension."""
        return BlobShape(n, self.c, self.h, self.w)

    def __str__(self) -> str:
        return f"{self.n}x{self.c}x{self.h}x{self.w}"


def conv_output_hw(in_h: int, in_w: int, kernel: int, stride: int,
                   pad: int) -> tuple[int, int]:
    """Output spatial size of a convolution (Caffe floor semantics)."""
    _validate_geometry(in_h, in_w, kernel, stride, pad)
    out_h = (in_h + 2 * pad - kernel) // stride + 1
    out_w = (in_w + 2 * pad - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"conv produces empty output: in={in_h}x{in_w} k={kernel} "
            f"s={stride} p={pad}")
    return out_h, out_w


def pool_output_hw(in_h: int, in_w: int, kernel: int, stride: int,
                   pad: int) -> tuple[int, int]:
    """Output spatial size of pooling (Caffe ceil semantics).

    Caffe additionally clips the last window so it starts inside the
    padded input; we replicate that adjustment.
    """
    _validate_geometry(in_h, in_w, kernel, stride, pad)
    out_h = int(math.ceil((in_h + 2 * pad - kernel) / stride)) + 1
    out_w = int(math.ceil((in_w + 2 * pad - kernel) / stride)) + 1
    if pad > 0:
        # Last pooling window must start strictly before pad+input end.
        if (out_h - 1) * stride >= in_h + pad:
            out_h -= 1
        if (out_w - 1) * stride >= in_w + pad:
            out_w -= 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"pool produces empty output: in={in_h}x{in_w} k={kernel} "
            f"s={stride} p={pad}")
    return out_h, out_w


def _validate_geometry(in_h: int, in_w: int, kernel: int, stride: int,
                       pad: int) -> None:
    if in_h < 1 or in_w < 1:
        raise ShapeError(f"input size must be >= 1, got {in_h}x{in_w}")
    if kernel < 1:
        raise ShapeError(f"kernel must be >= 1, got {kernel}")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ShapeError(f"pad must be >= 0, got {pad}")
    if pad >= kernel:
        raise ShapeError(
            f"pad {pad} >= kernel {kernel} would create all-padding windows")
