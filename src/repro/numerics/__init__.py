"""Numerical-precision substrate.

The Myriad 2 VPU executes convolutional networks in native FP16, while
the reference Caffe-MKL CPU path uses FP32.  This package provides the
FP16 emulation used by the VPU execution path (mirroring the OpenEXR
``half`` conversion the paper's NCSw framework performs on input pixels),
mixed-precision execution policies, and the statistics used to report
error bars in the figures.
"""

from repro.numerics.half import round_fp16
from repro.numerics.quant import Precision, PrecisionPolicy
from repro.numerics.stats import RunningStats
from repro.numerics.ulp import ulp_distance, relative_error

__all__ = [
    "round_fp16",
    "Precision",
    "PrecisionPolicy",
    "RunningStats",
    "ulp_distance",
    "relative_error",
]
