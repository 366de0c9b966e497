"""Synthetic ImageNet ILSVRC 2012 substrate.

The paper evaluates on the ILSVRC 2012 Validation dataset (50 000
images, 1000 synsets) with labels from the Validation Bounding Box
Annotations.  We cannot ship ImageNet, so this package generates a
statistically calibrated stand-in (DESIGN.md §2):

* a 1000-entry WordNet-like synset vocabulary (:mod:`synsets`);
* deterministic class-conditional image synthesis — every class has a
  canonical template, samples are templates plus calibrated noise
  (:mod:`generator`);
* a validation dataset with labels and the paper's 5 x 10 000
  subset split (:mod:`ilsvrc`);
* a simulated JPEG decode stage and the Caffe-style preprocessing
  pipeline (resize, mean subtraction, FP16 conversion)
  (:mod:`decode`, :mod:`preprocess`);
* noise calibration targeting a chosen top-1 error (:mod:`calibrate`).
"""

from repro.data.synsets import Synset, SynsetVocabulary
from repro.data.generator import ImageSynthesizer
from repro.data.ilsvrc import (
    ILSVRCValidation,
    ImageRecord,
)
from repro.data.decode import JPEGDecoder
from repro.data.preprocess import Preprocessor
from repro.data.calibrate import calibrate_noise

__all__ = [
    "Synset",
    "SynsetVocabulary",
    "ImageSynthesizer",
    "ILSVRCValidation",
    "ImageRecord",
    "JPEGDecoder",
    "Preprocessor",
    "calibrate_noise",
]
