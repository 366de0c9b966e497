"""SHAVE (Streaming Hybrid Architecture Vector Engine) processor model.

Each SHAVE (paper Fig. 1) is a VLIW core whose functional units issue
in parallel from Variable-Length Long Instruction Word packets:

* VAU — 128-bit Vector Arithmetic Unit (8 FP16 lanes, fused MAC);
* SAU — 32-bit Scalar Arithmetic Unit;
* IAU — 32-bit Integer Arithmetic Unit;
* CMU — 128-bit Compare-and-Move Unit;
* LSU0/LSU1 — two 64-bit Load-Store Units into CMX;
* PEU/BRU — predication and branching.

Register files: VRF 32 x 128-bit (12 ports), IRF 32 x 32-bit (18
ports).  The model estimates cycle counts for kernel *workloads*
(counts of vector MACs, element ops, and bytes moved) under the VLIW
issue constraint: compute and load/store issue in the same packet, so
the bound is the *maximum* of the unit costs, not their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError

#: FP16 lanes of the 128-bit VAU.
VAU_FP16_LANES = 8
#: FP32 lanes of the 128-bit VAU.
VAU_FP32_LANES = 4
#: Bytes per cycle of each 64-bit LSU.
LSU_BYTES_PER_CYCLE = 8


@dataclass(frozen=True)
class ShaveConfig:
    """Microarchitectural parameters of one SHAVE."""

    vau_fp16_lanes: int = VAU_FP16_LANES
    vau_fp32_lanes: int = VAU_FP32_LANES
    lsu_count: int = 2
    lsu_bytes_per_cycle: int = LSU_BYTES_PER_CYCLE
    vrf_entries: int = 32
    vrf_bits: int = 128
    vrf_ports: int = 12
    irf_entries: int = 32
    irf_bits: int = 32
    irf_ports: int = 18
    icache_bytes: int = 2048
    dcache_bytes: int = 1024

    def macs_per_cycle(self, fp16: bool = True) -> int:
        """Peak fused multiply-accumulates per cycle."""
        return self.vau_fp16_lanes if fp16 else self.vau_fp32_lanes


@dataclass(frozen=True)
class KernelWorkload:
    """Work descriptor for one kernel invocation on one SHAVE."""

    macs: int = 0              #: vectorisable multiply-accumulates (VAU)
    element_ops: int = 0       #: scalar/compare ops (SAU/CMU), e.g. max()
    load_bytes: int = 0        #: bytes read from CMX
    store_bytes: int = 0       #: bytes written to CMX
    setup_cycles: int = 150    #: prologue: loop setup, address generation

    def __post_init__(self) -> None:
        for name in ("macs", "element_ops", "load_bytes", "store_bytes",
                     "setup_cycles"):
            if getattr(self, name) < 0:
                raise SimulationError(f"negative workload field {name}")


@dataclass
class ShaveProcessor:
    """One SHAVE core: cycle estimation plus utilisation accounting."""

    index: int
    config: ShaveConfig = field(default_factory=ShaveConfig)
    busy_cycles: int = 0
    kernels_run: int = 0

    def kernel_cycles(self, work: KernelWorkload, *,
                      fp16: bool = True,
                      efficiency: float = 1.0) -> int:
        """Cycles to retire *work* on this SHAVE.

        ``efficiency`` de-rates the VAU for issue bubbles, alignment
        and short-row effects (the compiler supplies per-layer values).
        VLIW issue lets loads/stores pair with arithmetic, so the cycle
        count is the max of the compute bound and the memory bound,
        plus the serial setup prologue.
        """
        if not 0.0 < efficiency <= 1.0:
            raise SimulationError(
                f"efficiency must be in (0, 1], got {efficiency}")
        mac_rate = self.config.macs_per_cycle(fp16) * efficiency
        compute = self.work_compute_cycles(work, mac_rate)
        lsu_rate = self.config.lsu_count * self.config.lsu_bytes_per_cycle
        memory = (work.load_bytes + work.store_bytes) / lsu_rate
        cycles = int(round(work.setup_cycles + max(compute, memory)))
        return cycles

    @staticmethod
    def work_compute_cycles(work: KernelWorkload,
                            mac_rate: float) -> float:
        """Arithmetic-bound cycles at *mac_rate* MACs per cycle."""
        if mac_rate <= 0:
            raise SimulationError("mac_rate must be positive")
        # element_ops issue on SAU/CMU in parallel with the VAU, but a
        # kernel with only element ops is bounded by them (4 lanes).
        vau = work.macs / mac_rate
        sau = work.element_ops / 4.0
        return max(vau, sau)

    def record_execution(self, cycles: int, kernels: int = 1) -> None:
        """Account *kernels* completed kernels taking *cycles* in total."""
        if cycles < 0:
            raise SimulationError("negative cycle count")
        self.busy_cycles += cycles
        self.kernels_run += kernels
