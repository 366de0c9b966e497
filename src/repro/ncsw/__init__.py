"""NCSw — the Neural Compute Stick Wrapper framework (paper §III).

The paper's own software contribution: a small inference framework
that connects pluggable input *sources* to pluggable *target devices*
(Fig. 3), with a parallel multi-VPU implementation that spawns one
host thread per NCS device, loads inputs round-robin and overlaps the
USB transfers with on-device execution (Fig. 4).

This package reproduces that design on the simulation substrate:

* :mod:`sources` — ``SourceImage`` hierarchy: ``ImageFolder``,
  ``MPIStream``, ``SyntheticSource``;
* :mod:`targets` — ``TargetDevice`` hierarchy: ``IntelCPU``,
  ``NvGPU``, ``IntelVPU`` (multi-device);
* :mod:`scheduler` — the per-device worker processes with static
  round-robin assignment and double-buffered load/get;
* :mod:`framework` — the ``NCSw`` orchestrator wiring sources to
  targets (including device groups) and running the simulation;
* :mod:`results` — per-inference records and run-level aggregation;
* :mod:`faults` — seeded device-failure schedules (``FaultPlan``) and
  the degraded-mode accounting types for runs that lose a stick.
"""

from repro.ncsw.sources import (
    SourceImage,
    ImageFolder,
    MPIStream,
    SyntheticSource,
    WorkItem,
)
from repro.ncsw.targets import TargetDevice, IntelCPU, NvGPU, IntelVPU
from repro.ncsw.scheduler import MultiVPUScheduler
from repro.ncsw.framework import NCSw
from repro.ncsw.pipeline import (
    ADMISSION_POLICIES,
    PipelineResult,
    StreamingPipeline,
)
from repro.ncsw.results import InferenceRecord, RunResult
from repro.ncsw.faults import (
    DeviceFault,
    FailureEvent,
    FaultPlan,
    FaultStats,
)

__all__ = [
    "SourceImage",
    "ImageFolder",
    "MPIStream",
    "SyntheticSource",
    "WorkItem",
    "TargetDevice",
    "IntelCPU",
    "NvGPU",
    "IntelVPU",
    "MultiVPUScheduler",
    "NCSw",
    "StreamingPipeline",
    "PipelineResult",
    "ADMISSION_POLICIES",
    "InferenceRecord",
    "RunResult",
    "DeviceFault",
    "FailureEvent",
    "FaultPlan",
    "FaultStats",
]
