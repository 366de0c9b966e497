"""CMX (Connection Matrix) scratchpad memory model.

The Myriad 2's CMX is a software-managed 2 MB SRAM organised as 16
slices of 128 KB (each built from four 32 KB RAM cuts), individually
arbitrated and multi-ported (paper §II-A).  Each SHAVE has an affinity
slice it reaches at full bandwidth; cross-slice traffic goes through
the connection matrix.

The model provides:

* slice-granular allocation (the compiler's tiling planner uses it to
  place weight/activation tiles);
* an aggregate bandwidth figure for the timing estimator;
* per-slice occupancy accounting with leak detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocationError
from repro.units import GB, KiB

#: Architectural constants of the MA2450's CMX.
CMX_SLICES = 16
CMX_SLICE_BYTES = 128 * KiB
CMX_TOTAL_BYTES = CMX_SLICES * CMX_SLICE_BYTES  # 2 MiB
#: Aggregate sustained CMX bandwidth seen by the SHAVEs. Each of the 12
#: SHAVEs has two 64-bit LSU ports at 600 MHz; de-rated for arbitration.
CMX_BANDWIDTH_BYTES_S = 70 * GB


@dataclass
class CMXBlock:
    """A live allocation inside one CMX slice."""

    slice_index: int
    offset: int
    nbytes: int
    tag: str = ""


@dataclass
class _Slice:
    index: int
    capacity: int
    used: int = 0
    blocks: list[CMXBlock] = field(default_factory=list)


class CMXMemory:
    """Slice-granular CMX allocator.

    Allocation is first-fit by slice; a block never spans slices (the
    hardware's RAM cuts are independently arbitrated, and the NCSDK's
    tiling respects slice boundaries for exactly that reason).
    """

    def __init__(self, slices: int = CMX_SLICES,
                 slice_bytes: int = int(CMX_SLICE_BYTES)) -> None:
        if slices < 1 or slice_bytes < 1:
            raise AllocationError("CMX geometry must be positive")
        self._slices = [_Slice(i, slice_bytes) for i in range(slices)]
        self.slice_bytes = slice_bytes

    @property
    def num_slices(self) -> int:
        """Number of independently arbitrated CMX slices."""
        return len(self._slices)

    @property
    def capacity(self) -> int:
        """Total CMX bytes."""
        return self.num_slices * self.slice_bytes

    @property
    def used(self) -> int:
        """Bytes currently allocated."""
        return sum(s.used for s in self._slices)

    @property
    def free(self) -> int:
        """Bytes currently unallocated."""
        return self.capacity - self.used

    def alloc(self, nbytes: int, tag: str = "",
              prefer_slice: int | None = None) -> list[CMXBlock]:
        """Allocate *nbytes*, splitting across slices if needed.

        Returns the list of blocks backing the allocation.  Raises
        :class:`AllocationError` (and allocates nothing) if the request
        cannot be satisfied.
        """
        if nbytes <= 0:
            raise AllocationError(f"allocation must be positive, "
                                  f"got {nbytes}")
        if nbytes > self.free:
            raise AllocationError(
                f"CMX exhausted: need {nbytes} bytes, {self.free} free")
        order = list(range(self.num_slices))
        if prefer_slice is not None:
            if not 0 <= prefer_slice < self.num_slices:
                raise AllocationError(
                    f"invalid slice {prefer_slice}")
            order.remove(prefer_slice)
            order.insert(0, prefer_slice)

        blocks: list[CMXBlock] = []
        remaining = int(nbytes)
        for idx in order:
            if remaining == 0:
                break
            sl = self._slices[idx]
            room = sl.capacity - sl.used
            if room <= 0:
                continue
            take = min(room, remaining)
            block = CMXBlock(idx, sl.used, take, tag)
            sl.blocks.append(block)
            sl.used += take
            blocks.append(block)
            remaining -= take
        assert remaining == 0, "free-space accounting is broken"
        return blocks

    def free_blocks(self, blocks: list[CMXBlock]) -> None:
        """Release blocks previously returned by :meth:`alloc`."""
        for block in blocks:
            sl = self._slices[block.slice_index]
            try:
                sl.blocks.remove(block)
            except ValueError:
                raise AllocationError(
                    f"double free of CMX block {block}") from None
            sl.used -= block.nbytes

    def reset(self) -> None:
        """Drop every allocation (between inferences)."""
        for sl in self._slices:
            sl.blocks.clear()
            sl.used = 0

    def transfer_seconds(self, nbytes: float,
                         bandwidth: float = CMX_BANDWIDTH_BYTES_S) -> float:
        """Time to stream *nbytes* through the CMX ports."""
        if nbytes < 0:
            raise AllocationError("negative transfer size")
        return nbytes / bandwidth
