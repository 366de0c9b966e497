"""DAG network container with Caffe-style named blobs.

A :class:`Network` is an ordered list of layers wired by blob names.
Construction validates the wiring (every bottom must be produced before
it is consumed; exactly one producer per blob), so execution is a simple
in-order sweep — the same invariant Caffe's net initialisation enforces.

Execution takes a :class:`~repro.numerics.quant.PrecisionPolicy`:

* FP32 — the reference CPU/GPU path; weights and activations untouched.
* FP16 — the VPU path; weights rounded once (cached), every layer
  output rounded through binary16 before the next layer reads it —
  except where the rounding cannot change a value: the output of a
  layer that only selects among input values already on the binary16
  grid (max pooling, plain ReLU, Concat, Dropout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import GraphError, ShapeError
from repro.numerics.quant import PrecisionPolicy
from repro.nn.layer import Layer
from repro.tensors.layout import BlobShape


@dataclass(frozen=True)
class LayerCost:
    """Static per-layer cost summary used by compilers and timing models."""

    name: str
    type_name: str
    macs: int
    param_bytes: int
    activation_bytes: int


class Network:
    """An inference network: input blob + ordered, validated layers."""

    def __init__(self, name: str, input_blob: str,
                 input_shape: BlobShape) -> None:
        self.name = name
        self.input_blob = input_blob
        self.input_shape = input_shape
        self.layers: list[Layer] = []
        self._producers: dict[str, str] = {input_blob: "<input>"}
        # Cache of FP16-quantised parameters, built lazily per layer.
        self._fp16_params: dict[str, dict[str, np.ndarray]] = {}
        # Cached execution plans (fused steps + blob refcounts) keyed
        # by the capture set; invalidated when the topology changes.
        self._plan_cache: dict[frozenset,
                               tuple[list, dict[str, int]]] = {}

    # -- construction ---------------------------------------------------
    def add(self, layer: Layer) -> Layer:
        """Append a layer, validating blob wiring."""
        if any(l.name == layer.name for l in self.layers):
            raise GraphError(f"duplicate layer name {layer.name!r}")
        for bottom in layer.bottoms:
            if bottom not in self._producers:
                raise GraphError(
                    f"layer {layer.name!r} reads undefined blob "
                    f"{bottom!r}")
        for top in layer.tops:
            if top in self._producers and top not in layer.bottoms:
                # In-place layers (ReLU top == bottom) are allowed,
                # matching Caffe's in-place computation convention.
                raise GraphError(
                    f"blob {top!r} already produced by "
                    f"{self._producers[top]!r}")
            self._producers[top] = layer.name
        self.layers.append(layer)
        self._fp16_params.pop(layer.name, None)
        self._plan_cache.clear()
        return layer

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def layer(self, name: str) -> Layer:
        """Look up a layer by name."""
        for l in self.layers:
            if l.name == name:
                return l
        raise GraphError(f"no layer named {name!r} in {self.name!r}")

    @property
    def output_blob(self) -> str:
        """The top of the final layer."""
        if not self.layers:
            raise GraphError(f"network {self.name!r} has no layers")
        return self.layers[-1].tops[-1]

    # -- shape inference -------------------------------------------------
    def infer_shapes(
            self, batch: Optional[int] = None) -> dict[str, BlobShape]:
        """Shapes of every blob for the given batch size."""
        shape = (self.input_shape if batch is None
                 else self.input_shape.with_batch(batch))
        shapes: dict[str, BlobShape] = {self.input_blob: shape}
        for layer in self.layers:
            inputs = [shapes[b] for b in layer.bottoms]
            for top, out in zip(layer.tops, layer.output_shapes(inputs)):
                shapes[top] = out
        return shapes

    def validate(self) -> None:
        """Run shape inference end-to-end; raises on any mismatch."""
        self.infer_shapes()

    # -- cost model --------------------------------------------------------
    def layer_costs(self, batch: int = 1,
                    bytes_per_element: int = 4) -> list[LayerCost]:
        """Static cost table (MACs, bytes) for every layer.

        ``bytes_per_element`` sets the storage precision the byte
        columns are quoted at (4 for FP32 hosts, 2 for the FP16 VPU
        tier), so ``sum(c.param_bytes ...)`` always agrees with the
        layers' own ``param_bytes`` at the same precision.
        """
        shapes = self.infer_shapes(batch)
        costs = []
        for layer in self.layers:
            inputs = [shapes[b] for b in layer.bottoms]
            costs.append(LayerCost(
                name=layer.name,
                type_name=layer.type_name(),
                macs=layer.macs(inputs),
                param_bytes=layer.param_bytes(bytes_per_element),
                activation_bytes=layer.activation_bytes(
                    inputs, bytes_per_element),
            ))
        return costs

    def total_macs(self, batch: int = 1) -> int:
        """Total multiply-accumulates for one forward pass."""
        return sum(c.macs for c in self.layer_costs(batch))

    # -- execution ------------------------------------------------------------
    def _params_for(self, layer: Layer,
                    policy: PrecisionPolicy) -> dict[str, np.ndarray]:
        if (not policy.quantize_weights or not layer.params
                or not policy.applies_to(layer.name)):
            return layer.params
        cached = self._fp16_params.get(layer.name)
        if cached is None:
            cached = {role: policy.quantize_weight_array(arr)
                      for role, arr in layer.params.items()}
            self._fp16_params[layer.name] = cached
        return cached

    def invalidate_weight_cache(self) -> None:
        """Drop cached quantised weights (call after mutating params)."""
        self._fp16_params.clear()

    def _exec_plan(self, capture: frozenset
                   ) -> tuple[list, dict[str, int]]:
        """Execution plan: (layer, fused_relu) steps + blob refcounts.

        A Convolution immediately followed by the plain ReLU that is
        its sole consumer executes as one fused step: the ReLU is
        applied in place on the convolution output, skipping the
        intermediate blob round-trip.  Fusion never changes values —
        ``max(x, 0)`` is exact in every dtype and FP16 rounding is
        idempotent across it — so results are bit-identical to the
        unfused sweep.  Out-of-place ReLUs whose bottom is captured
        stay unfused so the pre-activation blob remains observable.
        """
        cached = self._plan_cache.get(capture)
        if cached is not None:
            return cached
        from repro.nn.conv import Convolution
        from repro.nn.relu import ReLU

        keep = set(capture) | {self.output_blob}
        consumers: dict[str, int] = {}
        for l in self.layers:
            for b in l.bottoms:
                consumers[b] = consumers.get(b, 0) + 1

        steps: list = []
        i = 0
        layers = self.layers
        while i < len(layers):
            layer = layers[i]
            fused = None
            if i + 1 < len(layers) and isinstance(layer, Convolution):
                nxt = layers[i + 1]
                if (isinstance(nxt, ReLU)
                        and nxt.negative_slope == 0.0
                        and len(layer.tops) == 1
                        and list(nxt.bottoms) == [layer.tops[0]]):
                    in_place = nxt.tops[0] == nxt.bottoms[0]
                    lone = (consumers.get(layer.tops[0], 0) == 1
                            and layer.tops[0] not in keep)
                    if in_place or lone:
                        fused = nxt
            steps.append((layer, fused))
            i += 2 if fused is not None else 1

        refcount: dict[str, int] = {}
        for layer, _ in steps:
            for b in layer.bottoms:
                refcount[b] = refcount.get(b, 0) + 1
        self._plan_cache[capture] = (steps, refcount)
        return steps, refcount

    def forward(self, x: np.ndarray,
                policy: Optional[PrecisionPolicy] = None,
                capture: Optional[Sequence[str]] = None) -> np.ndarray:
        """Run inference on a batch.

        Parameters
        ----------
        x:
            Input batch, NCHW float array.
        policy:
            Precision policy (default FP32 reference).
        capture:
            Optional blob names whose values to retain; retrieve with
            :meth:`forward_with_blobs` instead for the full mapping.
        """
        out, _ = self.forward_with_blobs(x, policy, capture or ())
        return out

    def forward_with_blobs(
            self, x: np.ndarray, policy: Optional[PrecisionPolicy] = None,
            capture: Sequence[str] = (),
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Like :meth:`forward`, also returning requested blob values."""
        policy = policy or PrecisionPolicy.fp32()
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4:
            raise ShapeError(f"input must be NCHW, got ndim={x.ndim}")
        expected = self.input_shape
        if x.shape[1:] != (expected.c, expected.h, expected.w):
            raise ShapeError(
                f"input shape {x.shape[1:]} != network geometry "
                f"({expected.c}, {expected.h}, {expected.w})")

        if policy.quantize_input_blob:
            # Host-side FP16 input conversion (the OpenEXR step); the
            # per-layer ablation policies keep the input in FP32 so
            # only the selected layers contribute drift, and the back
            # half of a split network keeps its input (the cut blob)
            # exactly as the front half produced it.
            x = policy.quantize_activation_array(x)
        blobs: dict[str, np.ndarray] = {self.input_blob: x}
        captured: dict[str, np.ndarray] = {}
        # Blobs known to hold binary16 values.  A layer that only
        # selects among its input values (``Layer.selects_inputs``)
        # keeps its outputs on that grid, so rounding them again is
        # skipped when every bottom is on it.
        on_grid: set[str] = ({self.input_blob}
                             if policy.quantize_input_blob else set())
        rounds = policy.quantize_activations
        # The plan carries fused Conv+ReLU steps and the blob
        # reference counts that let us free dead activations as we
        # sweep — peak memory stays near the true working set.
        steps, base_refcount = self._exec_plan(frozenset(capture))
        refcount = dict(base_refcount)
        keep = set(capture) | {self.output_blob}

        for layer, fused in steps:
            bottoms = layer.bottoms
            inputs = [blobs[b] for b in bottoms]
            saved_params = None
            applies = policy.applies_to(layer.name)
            if policy.quantize_weights and layer.params and applies:
                saved_params = layer.params
                layer.params = self._params_for(layer, policy)
            try:
                outputs = layer.forward(inputs)
            finally:
                if saved_params is not None:
                    layer.params = saved_params
            if fused is None:
                exact = (layer.selects_inputs
                         and all(b in on_grid for b in bottoms))
                tops = layer.tops
                for top, out in zip(tops, outputs):
                    out = np.asarray(out, dtype=np.float32)
                    if applies and not exact:
                        out = policy.quantize_activation_array(out)
                    blobs[top] = out
                    if top in keep:
                        captured[top] = out
            else:
                # Fused Conv+ReLU: rectify in place on the conv
                # output (freshly allocated, so mutation is safe).
                out = np.asarray(outputs[0], dtype=np.float32)
                if applies:
                    out = policy.quantize_activation_array(out)
                np.maximum(out, 0.0, out=out)
                # The ReLU's one bottom is on the grid iff the conv
                # output was just rounded.
                exact = fused.selects_inputs and rounds and applies
                applies = policy.applies_to(fused.name)
                if applies and not exact:
                    out = policy.quantize_activation_array(out)
                tops = fused.tops
                blobs[tops[0]] = out
                if tops[0] in keep:
                    captured[tops[0]] = out
            if rounds and (applies or exact):
                on_grid.update(tops)
            else:
                on_grid.difference_update(tops)
            for b in bottoms:
                left = refcount[b] - 1
                refcount[b] = left
                if left == 0 and b not in keep:
                    blobs.pop(b, None)

        return blobs[self.output_blob], captured

    def predict(self, x: np.ndarray,
                policy: Optional[PrecisionPolicy] = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Top-1 labels and confidences for a batch.

        Returns ``(labels, confidences)`` where labels has shape (N,)
        and confidences the corresponding softmax probabilities.
        """
        probs = self.forward(x, policy).reshape(x.shape[0], -1)
        labels = probs.argmax(axis=1)
        return labels, probs[np.arange(len(labels)), labels]

    def __repr__(self) -> str:
        return (f"<Network {self.name!r} layers={len(self.layers)} "
                f"input={self.input_shape}>")
