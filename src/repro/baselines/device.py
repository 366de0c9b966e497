"""Common interface of host-side inference devices.

CPU and GPU baselines share the behaviour: Caffe-style batch
processing (one blocking call per batch), FP32 functional execution on
the NumPy substrate, simulated latency from a calibrated
:class:`~repro.baselines.calibration.BatchLatencyModel`, and a TDP
figure for the throughput-per-Watt analysis.

Both run the same reference forward over the same prepared images, so
the output rows one device computes are shared with the other through
:data:`REFERENCE_MEMO` (see :class:`ReferenceMemo`).
"""

from __future__ import annotations

import weakref
from typing import Generator, Optional, Sequence

import numpy as np

from repro.baselines.calibration import BatchLatencyModel, mac_scale
from repro.errors import SimulationError
from repro.nn.graph import Network
from repro.numerics.quant import PrecisionPolicy
from repro.sim.core import Environment, Event


class ReferenceMemo:
    """Output rows host devices already computed, per input tensor.

    An entry is keyed on the network object, the precision policy and
    the input tensor's identity.  Only read-only tensors that own their
    data take part (the prepared tensors of an
    :class:`~repro.ncsw.sources.ImageFolder`); a writable input could
    change under the memo, so it always computes.  Each entry hangs
    off a weakref to its tensor and dies with it, so nothing outlives
    the source that prepared the images.  Only the numbers are shared:
    each device still pays its own simulated time.
    """

    def __init__(self) -> None:
        #: ``id(tensor) -> (weakref to it, {(network, policy): row})``
        self._entries: dict[int, tuple[weakref.ref, dict]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _rows(self, tensor: np.ndarray) -> Optional[dict]:
        """*tensor*'s rows by ``(network, policy)``, or None when it
        may not be memoised."""
        if tensor.flags.writeable or not tensor.flags.owndata:
            return None
        key = id(tensor)
        entry = self._entries.get(key)
        if entry is None or entry[0]() is not tensor:
            ref = weakref.ref(tensor,
                              lambda ref: self._forget(key, ref))
            entry = self._entries[key] = (ref, {})
        return entry[1]

    def _forget(self, key: int, ref: weakref.ref) -> None:
        entry = self._entries.get(key)
        if entry is not None and entry[0] is ref:
            del self._entries[key]

    def forward(self, network: Network, policy: PrecisionPolicy,
                images: Sequence[np.ndarray]) -> np.ndarray:
        """``network.forward`` of the batch of CHW *images*, forwarding
        only the rows not memoised yet.  The forward is batch
        invariant, so a row is the same bits whichever batch computed
        it."""
        key = (network, policy)
        memos = [self._rows(tensor) for tensor in images]
        rows = [None if memo is None else memo.get(key)
                for memo in memos]
        missing = [pos for pos, row in enumerate(rows) if row is None]
        if missing:
            out = network.forward(
                np.stack([images[pos] for pos in missing]), policy)
            if all(memo is None for memo in memos):
                return out
            for pos, row in zip(missing, out):
                rows[pos] = row
                if memos[pos] is not None:
                    memos[pos][key] = row
        return np.stack(rows)


#: The one memo every host device shares.
REFERENCE_MEMO = ReferenceMemo()

#: The reference precision of both baselines.
_FP32 = PrecisionPolicy.fp32()


class InferenceDevice:
    """A host-side batch-processing inference device."""

    #: Overridden by subclasses.
    name = "device"
    tdp_watts = 0.0

    def __init__(self, env: Environment, network: Network,
                 latency_model: BatchLatencyModel,
                 functional: bool = True,
                 jitter: float = 0.0,
                 jitter_seed: int = 0) -> None:
        if jitter < 0 or jitter >= 0.5:
            raise SimulationError(
                f"jitter must be in [0, 0.5), got {jitter}")
        self.env = env
        self.network = network
        self.latency_model = latency_model
        self.functional = functional
        #: Latency scales with workload size relative to paper GoogLeNet.
        self.mac_scale = mac_scale(network.total_macs(1))
        #: Relative std-dev of per-batch latency noise (testbed noise
        #: model; 0 keeps the simulation deterministic).
        self.jitter = float(jitter)
        self._jitter_rng = np.random.default_rng(jitter_seed)
        self.batches_run = 0
        self.images_run = 0

    # -- timing ------------------------------------------------------------
    def batch_seconds(self, batch: int) -> float:
        """Simulated wall time of one batch."""
        return self.latency_model.batch_seconds(batch, self.mac_scale)

    def per_image_seconds(self, batch: int) -> float:
        """Simulated per-image latency at a batch size."""
        return self.latency_model.per_image_seconds(batch, self.mac_scale)

    def throughput(self, batch: int) -> float:
        """Simulated images/second at a batch size."""
        return self.latency_model.throughput(batch, self.mac_scale)

    # -- execution -------------------------------------------------------------
    def _run(self, images: Optional[Sequence[np.ndarray]],
             n: int) -> Generator[Event, None, Optional[np.ndarray]]:
        """One batch: its simulated time, then the softmax output of
        *images* (an NCHW batch or a list of CHW tensors; None when
        timing only)."""
        seconds = self.batch_seconds(n)
        if self.jitter > 0:
            # Truncated multiplicative noise; never negative time.
            factor = max(0.5, 1.0 + self._jitter_rng.normal(
                0.0, self.jitter))
            seconds *= factor
        yield self.env.timeout(seconds)
        self.batches_run += 1
        self.images_run += n
        if not self.functional or images is None:
            return None
        return REFERENCE_MEMO.forward(self.network, _FP32, images)

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Synchronous functional prediction (no simulation clock).

        Used by the error-rate experiments, where only the outputs
        matter; FP32 is the reference precision of both baselines.
        """
        return self.network.predict(x, _FP32)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} tdp={self.tdp_watts}W "
                f"mac_scale={self.mac_scale:.4f}>")
