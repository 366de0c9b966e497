"""Simulated JPEG decode stage.

The paper's harness decodes validation JPEGs with OpenCV but *excludes
decode time from the reported results* (§IV: "we omit from our results
the decoding time per image, but account for the data transferring
time").  The decoder here does the same: it produces the pixels (by
invoking the deterministic synthesizer — our "storage format") and
tracks the simulated decode cost separately so the harness can report
it excluded, exactly like the paper.

The cost model is a fixed per-image overhead plus a per-pixel term,
calibrated to libjpeg-turbo-era throughput (~100 MP/s single thread).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.generator import ImageSynthesizer


@dataclass(frozen=True)
class DecodeStats:
    """Accumulated simulated decode cost."""

    images: int
    seconds: float


class JPEGDecoder:
    """Produces pixels for an image record and accounts decode time.

    Parameters
    ----------
    synthesizer:
        The deterministic image source standing in for the JPEG files.
    per_image_overhead_s:
        Fixed header/huffman setup cost per image.
    pixels_per_second:
        Sustained decode throughput (pixels / s).
    """

    def __init__(self, synthesizer: ImageSynthesizer,
                 per_image_overhead_s: float = 0.5e-3,
                 pixels_per_second: float = 100e6) -> None:
        self.synthesizer = synthesizer
        self.per_image_overhead_s = float(per_image_overhead_s)
        self.pixels_per_second = float(pixels_per_second)
        self._images = 0
        self._seconds = 0.0

    def decode(self, class_index: int, image_id: int) -> np.ndarray:
        """Return uint8 HWC pixels and accrue simulated decode time."""
        img = self.synthesizer.sample(class_index, image_id)
        self.charge(img.shape[0], img.shape[1])
        return img

    def charge(self, height: int, width: int) -> None:
        """Accrue the decode time of one *height* x *width* image
        without producing its pixels (a caller re-reading pixels it
        kept still pays the simulated decode)."""
        self._images += 1
        self._seconds += (self.per_image_overhead_s
                          + height * width / self.pixels_per_second)

    @property
    def stats(self) -> DecodeStats:
        """Decode cost accrued so far (excluded from reported timings)."""
        return DecodeStats(self._images, self._seconds)
