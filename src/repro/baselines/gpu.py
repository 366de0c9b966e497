"""The Caffe-cuDNN GPU baseline.

Models the paper's GPU target: an NVIDIA Quadro K4000 (Kepler GK106,
768 CUDA cores, 3 GB GDDR5, ~810 MHz) running the NVIDIA Caffe fork
(v0.16.4) with CUDA 9.0 / cuDNN 7.0.5.  Kepler-era cuDNN leaves much
of the 1.2 TFLOP/s peak on the table at batch 1 (kernel launch and
occupancy limits), which is why the paper measures 25.9 ms at batch 1
improving 1.9x by batch 8 — the anchored model encodes that measured
curve.
"""

from __future__ import annotations

from repro.baselines.calibration import GPU_LATENCY, BatchLatencyModel
from repro.baselines.device import InferenceDevice
from repro.nn.graph import Network
from repro.sim.core import Environment


class GPUDevice(InferenceDevice):
    """NVIDIA Quadro K4000 running Caffe-cuDNN (FP32)."""

    name = "gpu"
    #: Board power of the Quadro K4000 (the paper's §V figure).
    tdp_watts = 80.0

    def __init__(self, env: Environment, network: Network,
                 latency_model: BatchLatencyModel = GPU_LATENCY,
                 functional: bool = True,
                 jitter: float = 0.0) -> None:
        super().__init__(env, network, latency_model, functional,
                         jitter=jitter)
