"""Layer base class and registry.

Layers follow Caffe's bottom/top blob convention: a layer reads its
input blobs (*bottoms*) from the network's blob table and writes its
output blobs (*tops*).  Each layer also reports its compute and memory
footprint (:meth:`Layer.macs`, :meth:`Layer.param_count`), which the
VPU graph compiler and the device timing models consume.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GraphError, ShapeError
from repro.tensors.layout import BlobShape

#: Global registry mapping layer type names to classes.
LAYER_REGISTRY: dict[str, type["Layer"]] = {}


def register_layer(cls: type["Layer"]) -> type["Layer"]:
    """Class decorator adding a layer type to :data:`LAYER_REGISTRY`."""
    type_name = cls.type_name()
    if type_name in LAYER_REGISTRY:
        raise GraphError(f"duplicate layer type {type_name!r}")
    LAYER_REGISTRY[type_name] = cls
    return cls


class Layer:
    """Base class for network layers.

    Parameters
    ----------
    name:
        Unique layer name within the network.
    bottoms:
        Names of input blobs.
    tops:
        Names of output blobs.
    """

    def __init__(self, name: str, bottoms: Sequence[str],
                 tops: Sequence[str]) -> None:
        if not name:
            raise GraphError("layer name must be non-empty")
        self.name = name
        self.bottoms = list(bottoms)
        self.tops = list(tops)
        #: learnable parameters by role ("weight", "bias")
        self.params: dict[str, np.ndarray] = {}

    # -- identity -------------------------------------------------------
    @classmethod
    def type_name(cls) -> str:
        """Caffe-style layer type string (class name by default)."""
        return cls.__name__

    @property
    def selects_inputs(self) -> bool:
        """True when every output value is a copy of an input value.

        Such a layer (a max, a concatenation, an identity) cannot move
        a value off a grid its inputs are on, so the FP16 executor
        need not round its outputs when every input is already
        binary16.  Anything that does arithmetic on values is not
        selecting.
        """
        return False

    # -- shape inference --------------------------------------------------
    def output_shapes(
            self, input_shapes: Sequence[BlobShape]) -> list[BlobShape]:
        """Shapes of the top blobs given bottom shapes."""
        raise NotImplementedError

    def _expect_bottoms(self, shapes: Sequence, n: int) -> None:
        if len(shapes) != n:
            raise ShapeError(
                f"{self.name}: expected {n} input(s), got {len(shapes)}")

    # -- execution ----------------------------------------------------------
    def forward(self, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Compute top blobs from bottom blobs (float32 in, float32 out)."""
        raise NotImplementedError

    # -- cost model -----------------------------------------------------------
    def macs(self, input_shapes: Sequence[BlobShape]) -> int:
        """Multiply-accumulate operations per forward pass (whole batch)."""
        return 0

    def param_count(self) -> int:
        """Number of learnable parameters."""
        return sum(int(p.size) for p in self.params.values())

    def param_bytes(self, bytes_per_element: int = 4) -> int:
        """Parameter storage size at the given precision."""
        return self.param_count() * bytes_per_element

    def activation_bytes(self, input_shapes: Sequence[BlobShape],
                         bytes_per_element: int = 4) -> int:
        """Output activation storage for one forward pass."""
        return sum(s.count for s in self.output_shapes(input_shapes)
                   ) * bytes_per_element

    # -- weight plumbing -------------------------------------------------------
    def set_params(self, **arrays: np.ndarray) -> None:
        """Install parameter arrays after validating their shapes."""
        for role, arr in arrays.items():
            if role not in self.params:
                raise GraphError(
                    f"{self.name}: no parameter slot {role!r}")
            expected = self.params[role].shape
            arr = np.asarray(arr, dtype=np.float32)
            if arr.shape != expected:
                raise ShapeError(
                    f"{self.name}.{role}: shape {arr.shape} != {expected}")
            self.params[role] = np.ascontiguousarray(arr)

    def __repr__(self) -> str:
        return (f"<{self.type_name()} {self.name!r} "
                f"{self.bottoms}->{self.tops}>")
