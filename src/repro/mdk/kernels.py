"""General-purpose SHAVE compute kernels.

A :class:`ComputeKernel` describes one data-parallel kernel as the MDK
sees it: a per-work-item cost (MACs / element ops / bytes moved) and a
global work size.  The :class:`KernelLauncher` fans work-groups across
a chip's SHAVE array as simulation processes, records per-kernel
profiles (the MDK ships a profiler; so do we) and keeps the chip's
power islands honest while kernels run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.errors import SimulationError
from repro.sim.core import Event
from repro.vpu.myriad2 import Myriad2
from repro.vpu.shave import KernelWorkload


@dataclass(frozen=True)
class ComputeKernel:
    """A data-parallel kernel description.

    ``per_item`` is the cost of one work-item; ``work_items`` the
    global size.  ``efficiency`` de-rates the VAU exactly as the
    inference compiler's per-layer efficiencies do.
    """

    name: str
    per_item: KernelWorkload
    work_items: int
    efficiency: float = 0.6
    fp16: bool = True

    def __post_init__(self) -> None:
        if self.work_items < 1:
            raise SimulationError(
                f"{self.name}: work_items must be >= 1")
        if not 0.0 < self.efficiency <= 1.0:
            raise SimulationError(
                f"{self.name}: efficiency must be in (0, 1]")

    def total_macs(self) -> int:
        """MACs across the whole global work size."""
        return self.per_item.macs * self.work_items


@dataclass
class KernelProfile:
    """Per-kernel execution record (the MDK profiler's view)."""

    name: str
    launches: int = 0
    total_seconds: float = 0.0
    total_macs: int = 0
    shaves_used: list[int] = field(default_factory=list)

    def gflops(self, flops_per_mac: int = 2) -> float:
        """Achieved GFLOP/s over all launches."""
        if self.total_seconds <= 0:
            return 0.0
        return self.total_macs * flops_per_mac / self.total_seconds / 1e9


class KernelLauncher:
    """Runs :class:`ComputeKernel` instances on a Myriad 2 model."""

    def __init__(self, chip: Myriad2) -> None:
        self.chip = chip
        self.profiles: dict[str, KernelProfile] = {}

    def launch(self, kernel: ComputeKernel,
               shaves: int | None = None) -> Event:
        """Launch *kernel* on up to *shaves* SHAVEs (process event)."""
        available = len(self.chip.shaves)
        n = available if shaves is None else shaves
        if not 1 <= n <= available:
            raise SimulationError(
                f"shaves must be in [1, {available}], got {n}")
        return self.chip.env.process(self._run(kernel, n))

    def _run(self, kernel: ComputeKernel,
             shaves: int) -> Generator[Event, None, float]:
        env = self.chip.env
        used = min(shaves, kernel.work_items)
        # Split the global work across SHAVEs; the critical path is
        # the largest share (ceil split).
        items_per_shave = -(-kernel.work_items // used)
        per_shave = KernelWorkload(
            macs=kernel.per_item.macs * items_per_shave,
            element_ops=kernel.per_item.element_ops * items_per_shave,
            load_bytes=kernel.per_item.load_bytes * items_per_shave,
            store_bytes=kernel.per_item.store_bytes * items_per_shave,
            setup_cycles=kernel.per_item.setup_cycles,
        )
        cycles = self.chip.shaves[0].kernel_cycles(
            per_shave, fp16=kernel.fp16, efficiency=kernel.efficiency)
        seconds = self.chip.clock.to_seconds(cycles)

        islands = (*(f"shave{i}" for i in range(used)), "cmx")
        self.chip.islands.power_on(*islands)
        try:
            yield env.timeout(seconds)
            for i in range(used):
                self.chip.shaves[i].record_execution(cycles)
        finally:
            self.chip.islands.power_off(*islands)

        profile = self.profiles.setdefault(
            kernel.name, KernelProfile(kernel.name))
        profile.launches += 1
        profile.total_seconds += seconds
        profile.total_macs += kernel.total_macs()
        profile.shaves_used.append(used)
        return seconds
