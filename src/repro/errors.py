"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subsystem-specific errors mirror
the status codes of the real platforms they model (e.g. the NCSDK's
``mvncStatus`` enumeration maps onto :class:`NCAPIError` subclasses).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked."""


class ShapeError(ReproError):
    """Tensor shape or layout mismatch."""


class GraphError(ReproError):
    """Malformed network graph (cycles, dangling blobs, duplicate names)."""


class CompileError(ReproError):
    """The VPU graph compiler could not schedule or tile the network."""


class AllocationError(CompileError):
    """CMX / DDR allocation failed (working set exceeds device memory)."""


class NCAPIError(ReproError):
    """Base class mirroring non-OK ``mvncStatus`` codes of the NCSDK."""

    status = "MVNC_ERROR"


class DeviceNotFound(NCAPIError):
    """No NCS device with the requested index exists on the bus."""

    status = "MVNC_DEVICE_NOT_FOUND"


class DeviceBusy(NCAPIError):
    """The device FIFO is full or the device is mid-boot."""

    status = "MVNC_BUSY"


class InvalidGraphFile(NCAPIError):
    """The blob handed to ``allocate_graph`` is not a compiled graph."""

    status = "MVNC_UNSUPPORTED_GRAPH_FILE"


class DeviceClosed(NCAPIError):
    """Operation attempted on a closed device handle."""

    status = "MVNC_INVALID_HANDLE"


class DeviceLost(NCAPIError):
    """The device died mid-run (hot-unplug, firmware crash)."""

    status = "MVNC_DEVICE_LOST"


class ThermalShutdown(DeviceLost):
    """The stick's firmware killed itself on over-temperature."""

    status = "MVNC_THERMAL_SHUTDOWN"


class DeviceTimeout(NCAPIError):
    """A per-call NCAPI deadline expired (hung firmware suspected)."""

    status = "MVNC_TIMEOUT"


class USBError(ReproError):
    """USB topology / transfer model errors."""


class DatasetError(ReproError):
    """Synthetic ILSVRC dataset construction or lookup failure."""


class PowerError(ReproError):
    """Unknown device in the TDP registry or invalid power query."""


class FrameworkError(ReproError):
    """NCSw framework wiring errors (unknown target, empty source...)."""


class ObservabilityError(ReproError):
    """Misuse of the tracing/metrics layer (repro.obs)."""


class FlowError(ReproError):
    """Workflow compilation or execution errors (repro.flow)."""
