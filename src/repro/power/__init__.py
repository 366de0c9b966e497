"""Power models: TDP registry and throughput-per-Watt metrics.

The paper's efficiency analysis (§V, Fig. 8a) is explicitly TDP-based
— "we assume the maximum power consumption was required" — using the
datasheet figures: 80 W for the Xeon E5-2609v2, 80 W for the Quadro
K4000, 0.9 W for the Myriad 2 chip and 2.5 W peak for a whole NCS
stick.  This package encodes those constants and Eq. (1).
"""

from repro.power.tdp import TDP, TDPRegistry, DEFAULT_TDP
from repro.power.metrics import (
    throughput_per_watt,
    tdp_reduction,
)

__all__ = [
    "TDP",
    "TDPRegistry",
    "DEFAULT_TDP",
    "throughput_per_watt",
    "tdp_reduction",
]
