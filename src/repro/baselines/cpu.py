"""The Caffe-MKL CPU baseline.

Models the paper's CPU target: two four-core Intel Xeon E5-2609v2 at
2.5 GHz (no hyper-threading, no turbo) running the Intel-optimised
Caffe fork (v1.0.7) with MKL 2018.1 and the "MKL2017" engine.  The
E5-2609v2 has AVX but no FMA, so its practical GEMM roofline is
8 cores x 8 SP FLOPs x 2.5 GHz = 160 GFLOP/s; GoogLeNet's ~3.2 GFLOP
at realistic MKL efficiency lands in the paper's measured 26 ms — the
anchored latency model encodes exactly that measurement and its weak
batch scaling (Fig. 6b: only 1.1x at batch 8).
"""

from __future__ import annotations

from repro.baselines.calibration import CPU_LATENCY, BatchLatencyModel
from repro.baselines.device import InferenceDevice
from repro.nn.graph import Network
from repro.sim.core import Environment


class CPUDevice(InferenceDevice):
    """2x Xeon E5-2609v2 running Caffe-MKL (FP32)."""

    name = "cpu"
    #: TDP of the Xeon E5-2609v2 (the paper's §V figure).
    tdp_watts = 80.0

    def __init__(self, env: Environment, network: Network,
                 latency_model: BatchLatencyModel = CPU_LATENCY,
                 functional: bool = True,
                 jitter: float = 0.0) -> None:
        super().__init__(env, network, latency_model, functional,
                         jitter=jitter)
