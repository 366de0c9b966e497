"""Tensor substrate: Caffe-style NCHW blobs and convolution lowering.

The NN engine (:mod:`repro.nn`) operates on plain NumPy arrays in NCHW
layout; this package centralises the shape arithmetic (padding, strides,
output geometry) and the im2col lowering that turns convolutions into
GEMMs — the same lowering both Caffe-MKL and the NCSDK compiler perform.
"""

from repro.tensors.layout import (
    BlobShape,
    conv_output_hw,
    pool_output_hw,
)
from repro.tensors.im2col import im2col

__all__ = [
    "BlobShape",
    "conv_output_hw",
    "pool_output_hw",
    "im2col",
]
