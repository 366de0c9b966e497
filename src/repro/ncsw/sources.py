"""Input sources (the ``SourceImage`` side of the paper's Fig. 3).

A source is a re-iterable stream of :class:`WorkItem` objects.  The
framework iterates a fresh pass for every run, so sources must yield
the same items on every iteration (all our generators are
deterministic, so this comes for free).
"""

from __future__ import annotations

import collections
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro.data.decode import JPEGDecoder
from repro.data.ilsvrc import ILSVRCValidation
from repro.data.preprocess import Preprocessor
from repro.errors import FrameworkError


@dataclass(frozen=True)
class WorkItem:
    """One unit of inference work flowing through the framework."""

    index: int
    image_id: int
    label: Optional[int]
    tensor: Optional[np.ndarray] = field(repr=False, default=None)
    #: Causal trace context carried down from the serving layer (see
    #: :mod:`repro.obs.reqtrace`); None for batch-campaign work.
    trace: Optional[Any] = field(repr=False, default=None, compare=False)


class SourceImage:
    """Abstract base of input sources."""

    name = "source"

    def __iter__(self) -> Iterator[WorkItem]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


#: Bytes of prepared tensors one :class:`ImageFolder` keeps between
#: passes: a default-scale subset (200 images of 3x64x64 FP32, about
#: 9.8 MB) fits whole; of a paper-scale one (3x224x224) it keeps the
#: first 111 images.
STORE_BYTES = 64 * 2**20


class ImageFolder(SourceImage):
    """A directory of validation images (one ILSVRC subset).

    Decodes through the simulated JPEG decoder (whose time the paper
    excludes from results — available via :attr:`decoder`) and
    preprocesses to the network's input geometry.

    Each image is decoded and preprocessed once: the prepared tensor
    is kept, read-only, in a store of at most :data:`STORE_BYTES` that
    fills in iteration order and never evicts, so every later pass
    over the kept prefix reuses it.  Every pass still charges the
    decoder for every image, so :attr:`decoder` stats are the same as
    if each pass had decoded again.
    """

    name = "image_folder"

    def __init__(self, dataset: ILSVRCValidation, subset: int,
                 preprocessor: Preprocessor,
                 limit: Optional[int] = None) -> None:
        self.dataset = dataset
        self.subset = subset
        self.preprocessor = preprocessor
        self.limit = limit
        self.decoder = JPEGDecoder(dataset.synthesizer)
        self._ids = list(dataset.subset_ids(subset))
        if limit is not None:
            if limit < 1:
                raise FrameworkError(f"limit must be >= 1, got {limit}")
            self._ids = self._ids[:limit]
        #: Prepared tensors by index, with the decoded image's height
        #: and width to charge the decoder on a re-read.
        self._store: list[tuple[np.ndarray, int, int]] = []
        self._store_bytes = 0

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[WorkItem]:
        for index, image_id in enumerate(self._ids):
            record = self.dataset.record(image_id)
            if index < len(self._store):
                tensor, height, width = self._store[index]
                self.decoder.charge(height, width)
            else:
                pixels = self.decoder.decode(record.label,
                                             record.image_id)
                tensor = self.preprocessor(pixels)
                tensor.flags.writeable = False
                if (index == len(self._store) and self._store_bytes
                        + tensor.nbytes <= STORE_BYTES):
                    self._store.append(
                        (tensor, pixels.shape[0], pixels.shape[1]))
                    self._store_bytes += tensor.nbytes
            yield WorkItem(index=index, image_id=image_id,
                           label=record.label, tensor=tensor)


class SyntheticSource(SourceImage):
    """*count* timing-only items (no pixels, no labels).

    Used by the performance benchmarks, where the devices run in
    non-functional mode and only the simulated clock matters.

    An optional *payload* hook attaches a tensor to each item, for
    scenarios that want per-item data variation (e.g. functional-mode
    serving smoke tests) without a dataset.  Determinism contract:
    the hook is called as ``payload(rng, index)`` with a NumPy
    ``Generator`` seeded from ``(seed, index)`` only, so item *i* gets
    the same tensor on every pass, regardless of how many items were
    drawn before it or whether a previous iteration stopped early.
    The framework re-iterates sources per run and relies on this.
    """

    name = "synthetic"

    def __init__(self, count: int,
                 payload: Optional[
                     Callable[[np.random.Generator, int],
                              np.ndarray]] = None,
                 seed: int = 0) -> None:
        if count < 1:
            raise FrameworkError(f"count must be >= 1, got {count}")
        self.count = count
        self.payload = payload
        self.seed = seed

    def _item_rng(self, index: int) -> np.random.Generator:
        digest = hashlib.sha256(
            f"synthetic:{self.seed}:{index}".encode()).digest()
        return np.random.default_rng(
            int.from_bytes(digest[:8], "little"))

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[WorkItem]:
        for index in range(self.count):
            tensor = None
            if self.payload is not None:
                tensor = self.payload(self._item_rng(index), index)
            yield WorkItem(index=index, image_id=index + 1, label=None,
                           tensor=tensor)


class MPIStream(SourceImage):
    """An MPI-style streamed source (paper Fig. 3's ``MPIStream``).

    Models the data-streaming MPI extension the authors cite [32]: a
    producer rank posts messages (tagged payloads) into a stream; the
    consumer drains them in order.  In-process here — the point is the
    pluggable-source architecture, not distribution.
    """

    name = "mpi_stream"
    _EOS = object()  #: end-of-stream sentinel

    def __init__(self, source_rank: int = 0) -> None:
        self.source_rank = source_rank
        self._queue: collections.deque = collections.deque()
        self._closed = False
        self._count = 0

    # -- producer API -----------------------------------------------------
    def send(self, tensor: Optional[np.ndarray],
             label: Optional[int] = None, tag: Any = None) -> None:
        """Post one image into the stream (like ``MPI_Send`` to it)."""
        if self._closed:
            raise FrameworkError("stream is closed")
        self._count += 1
        self._queue.append((self._count, tensor, label, tag))

    def close(self) -> None:
        """Mark end-of-stream; iteration stops after the last message."""
        self._closed = True
        self._queue.append(self._EOS)

    # -- consumer API ---------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[WorkItem]:
        if not self._closed:
            raise FrameworkError(
                "MPIStream must be closed before iteration (all "
                "messages posted)")
        index = 0
        for entry in list(self._queue):
            if entry is self._EOS:
                break
            image_id, tensor, label, _tag = entry
            yield WorkItem(index=index, image_id=image_id, label=label,
                           tensor=tensor)
            index += 1
