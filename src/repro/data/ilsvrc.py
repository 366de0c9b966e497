"""Synthetic ILSVRC 2012 Validation dataset.

Mirrors the structure the paper uses: a flat directory of numbered
validation images (``ILSVRC2012_val_00000001.JPEG`` ...), ground-truth
labels from the Validation Bounding Box Annotations, and the paper's
evaluation split into subsets of 10 000 images (Set-1 ... Set-5).

Images are generated lazily through :class:`~repro.data.generator.
ImageSynthesizer`, so a 50 000-image dataset costs no storage and no
up-front time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.data.generator import ImageSynthesizer, _rng_for
from repro.data.synsets import SynsetVocabulary
from repro.errors import DatasetError


@dataclass(frozen=True)
class ImageRecord:
    """One validation image (pixels produced lazily)."""

    image_id: int
    filename: str
    label: int
    wnid: str


class ILSVRCValidation:
    """The synthetic validation dataset.

    Parameters
    ----------
    vocabulary:
        Synset vocabulary defining the class set.
    synthesizer:
        Image source; must have ``num_classes == len(vocabulary)``.
    num_images:
        Total validation images (paper: 50 000).
    subset_size:
        Images per evaluation subset (paper: 10 000 -> 5 subsets).
    """

    def __init__(self, vocabulary: SynsetVocabulary,
                 synthesizer: ImageSynthesizer,
                 num_images: int = 50_000,
                 subset_size: int = 10_000,
                 seed: int = 2012) -> None:
        if synthesizer.num_classes != len(vocabulary):
            raise DatasetError(
                f"synthesizer has {synthesizer.num_classes} classes but "
                f"vocabulary has {len(vocabulary)}")
        if num_images < 1:
            raise DatasetError("num_images must be >= 1")
        if subset_size < 1 or num_images % subset_size != 0:
            raise DatasetError(
                f"subset_size {subset_size} must divide num_images "
                f"{num_images}")
        self.vocabulary = vocabulary
        self.synthesizer = synthesizer
        self.num_images = num_images
        self.subset_size = subset_size
        self.seed = seed
        # Deterministic label assignment, near-uniform across classes
        # (ILSVRC val has exactly 50 images per class; we shuffle a
        # balanced assignment for the same property).
        n_classes = len(vocabulary)
        reps = -(-num_images // n_classes)  # ceil division
        labels = np.tile(np.arange(n_classes), reps)[:num_images]
        _rng_for(seed, "labels").shuffle(labels)
        self._labels = labels

    # -- records ----------------------------------------------------------
    def __len__(self) -> int:
        return self.num_images

    def record(self, image_id: int) -> ImageRecord:
        """Record for 1-based *image_id* (matching ILSVRC numbering)."""
        if not 1 <= image_id <= self.num_images:
            raise DatasetError(
                f"image_id {image_id} out of range [1, {self.num_images}]")
        label = int(self._labels[image_id - 1])
        return ImageRecord(
            image_id=image_id,
            filename=f"ILSVRC2012_val_{image_id:08d}.JPEG",
            label=label,
            wnid=self.vocabulary[label].wnid,
        )

    def pixels(self, image_id: int) -> np.ndarray:
        """Lazily synthesize the uint8 HWC pixels of *image_id*."""
        rec = self.record(image_id)
        return self.synthesizer.sample(rec.label, rec.image_id)

    # -- subsets -------------------------------------------------------------
    @property
    def num_subsets(self) -> int:
        """Number of evaluation subsets (paper: 5)."""
        return self.num_images // self.subset_size

    def subset_ids(self, subset: int) -> range:
        """1-based image ids of evaluation subset *subset* (0-based)."""
        if not 0 <= subset < self.num_subsets:
            raise DatasetError(
                f"subset {subset} out of range [0, {self.num_subsets})")
        start = subset * self.subset_size + 1
        return range(start, start + self.subset_size)

    def iter_subset(self, subset: int,
                    limit: int | None = None) -> Iterator[ImageRecord]:
        """Iterate records of a subset, optionally truncated to *limit*.

        ``limit`` is the harness's scale knob: experiments at reduced
        scale evaluate the first *limit* images of each subset and
        record that in their output.
        """
        ids: Sequence[int] = self.subset_ids(subset)
        if limit is not None:
            ids = ids[:limit]
        for image_id in ids:
            yield self.record(image_id)
