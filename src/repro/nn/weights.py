"""Deterministic synthetic "pre-trained" weights.

The paper uses the BVLC GoogLeNet caffemodel — ~28 MB of proprietary-
scale trained parameters we cannot ship or retrain here.  The
substitution (DESIGN.md §2) is a *statistically calibrated* model:

1. Every conv/FC layer gets deterministic He-scaled Gaussian weights,
   seeded per layer name, so features are a fixed random projection
   with well-behaved activation magnitudes (safe for FP16).
2. The final classifier row for class *c* is set to the network's own
   feature response to that class's canonical template image (computed
   once through the real network).  Images of class *c* are templates
   plus noise, so top-1 accuracy is a smooth, controllable function of
   the dataset noise level — and both precision paths (FP32 / FP16)
   run the *same real network* end to end.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from repro.nn.googlenet import feature_blob_name
from repro.nn.graph import Network


def _layer_rng(seed: int, layer_name: str, role: str) -> np.random.Generator:
    """Deterministic RNG per (seed, layer, role), stable across runs."""
    digest = hashlib.sha256(
        f"{seed}:{layer_name}:{role}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def initialize_network(net: Network, seed: int = 0) -> None:
    """Install He-scaled Gaussian weights into every parameterised layer.

    Fan-in scaling (``std = sqrt(2 / fan_in)``) keeps activation
    variance roughly constant through the ReLU stack, which keeps every
    intermediate tensor comfortably inside FP16's dynamic range.
    """
    for layer in net.layers:
        if not layer.params:
            continue
        new = {}
        for role, arr in layer.params.items():
            rng = _layer_rng(seed, layer.name, role)
            if role == "bias" or arr.ndim == 1:
                new[role] = np.zeros_like(arr)
            else:
                fan_in = int(np.prod(arr.shape[1:]))
                std = np.sqrt(2.0 / fan_in)
                new[role] = rng.normal(
                    0.0, std, size=arr.shape).astype(np.float32)
        layer.set_params(**new)
    net.invalidate_weight_cache()


class WeightStore:
    """Builds and installs the calibrated synthetic-pretrained weights.

    Parameters
    ----------
    seed:
        Master seed; the same seed always produces bit-identical weights.
    logit_scale:
        Multiplier applied to the class-prototype classifier rows.
        Larger values sharpen softmax confidences.
    """

    def __init__(self, seed: int = 0, logit_scale: float = 8.0) -> None:
        self.seed = seed
        self.logit_scale = float(logit_scale)

    def pretrain(self, net: Network,
                 class_template: Callable[[int], np.ndarray],
                 num_classes: int,
                 classifier_layer: str = "loss3/classifier",
                 feature_blob: str | None = None,
                 batch: int = 32) -> None:
        """Install backbone weights and calibrate the classifier.

        ``class_template(c)`` must return the canonical CHW image for
        class *c* (the noise-free centre of that class's image
        distribution — see :mod:`repro.data.generator`).
        ``feature_blob`` names the pre-classifier blob (defaults to
        GoogLeNet's; pass the zoo entry's ``feature_blob`` for AlexNet).
        """
        initialize_network(net, seed=self.seed)
        feats = self._template_features(
            net, class_template, num_classes, batch,
            feature_blob or feature_blob_name())
        # Prototype construction with a margin guarantee.  The raw
        # features of a random ReLU network share a large common
        # component, so rows are built from *centred* features, and the
        # bias subtracts the mean at inference time:
        #
        #   logit_k(x) = a * <u_k, f(x) - m>,  u_k = (f_k - m)/|f_k - m|
        #
        # For the noise-free template of class c, Cauchy-Schwarz gives
        # logit_c = a*|f_c - m| >= logit_k for every k, with equality
        # only if two centred features are parallel — so templates
        # always classify correctly, and noisy samples degrade smoothly.
        mean = feats.mean(axis=0)
        centred = feats - mean
        norms = np.linalg.norm(centred, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        units = centred / norms
        alpha = self.logit_scale / float(norms.mean())
        rows = (units * alpha).astype(np.float32)
        bias = (-rows @ mean).astype(np.float32)

        clf = net.layer(classifier_layer)
        if clf.params["weight"].shape != rows.shape:
            raise ValueError(
                f"classifier shape {clf.params['weight'].shape} != "
                f"prototype matrix {rows.shape}; check num_classes")
        clf.set_params(weight=rows, bias=bias)
        net.invalidate_weight_cache()

    def _template_features(self, net: Network,
                           class_template: Callable[[int], np.ndarray],
                           num_classes: int,
                           batch: int,
                           feature_blob: str) -> np.ndarray:
        """Feature vectors of every class template through the backbone."""
        feats = []
        for start in range(0, num_classes, batch):
            stop = min(start + batch, num_classes)
            imgs = np.stack([np.asarray(class_template(c), dtype=np.float32)
                             for c in range(start, stop)])
            _, captured = net.forward_with_blobs(
                imgs, capture=[feature_blob])
            feats.append(captured[feature_blob].reshape(stop - start, -1))
        return np.concatenate(feats, axis=0)
