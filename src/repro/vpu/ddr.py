"""LPDDR3 channel model.

The MA2450 variant in the NCS stacks 4 GB of LPDDR3 (paper §II-A).
The channel model is bandwidth/latency only — sufficient because the
compiler decides statically which tensors live in DDR, and the timing
estimator charges their traffic against this channel.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.units import GB, GiB


#: Architectural constants for the NCS's stacked LPDDR3.
DDR_CAPACITY_BYTES = 4 * GiB
#: 32-bit LPDDR3-933 peak is ~7.5 GB/s; sustained de-rated figure.
DDR_BANDWIDTH_BYTES_S = 4.0 * GB
DDR_LATENCY_S = 150e-9


class DDRChannel:
    """Capacity accounting plus the latency and bandwidth the DMA engine
    charges transfers at."""

    def __init__(self, capacity: int = int(DDR_CAPACITY_BYTES),
                 bandwidth: float = DDR_BANDWIDTH_BYTES_S,
                 latency: float = DDR_LATENCY_S) -> None:
        if capacity < 1 or bandwidth <= 0 or latency < 0:
            raise AllocationError("invalid DDR parameters")
        self.capacity = capacity
        self.bandwidth = bandwidth
        self.latency = latency
        self._used = 0
        self.bytes_read = 0
        self.bytes_written = 0

    @property
    def used(self) -> int:
        """Bytes currently reserved."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes still available."""
        return self.capacity - self._used

    def alloc(self, nbytes: int) -> int:
        """Reserve *nbytes*; returns an opaque size handle."""
        if nbytes <= 0:
            raise AllocationError("allocation must be positive")
        if nbytes > self.free:
            raise AllocationError(
                f"DDR exhausted: need {nbytes}, {self.free} free")
        self._used += nbytes
        return nbytes

    def release(self, handle: int) -> None:
        """Release a reservation made with :meth:`alloc`."""
        if handle > self._used:
            raise AllocationError("release exceeds allocated bytes")
        self._used -= handle
