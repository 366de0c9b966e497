"""LAMA-style GEMM with CMX tiling.

Reproduces the analysis of Ionica & Gregg, "The Movidius Myriad
architecture's potential for scientific computing" (IEEE Micro 2015) —
the study the paper's related-work section pairs itself with: a custom
GEMM whose A/B/C tiles live in CMX, with performance reported in
Gflops and Gflops/W (estimated through TDP, exactly like the paper's
Eq. 1).

The plan picks square-ish tiles so that one A-tile, one B-tile and one
C-tile per SHAVE fit the per-SHAVE CMX slice; the cycle model then
charges the tile GEMMs to the VAU and the tile traffic to the LSUs,
with DDR streaming for matrices too large for CMX residency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompileError
from repro.mdk.kernels import ComputeKernel, KernelLauncher
from repro.numerics.quant import PrecisionPolicy
from repro.sim.core import Event
from repro.vpu.cmx import CMX_SLICE_BYTES
from repro.vpu.myriad2 import Myriad2
from repro.vpu.shave import KernelWorkload


@dataclass(frozen=True)
class GemmPlan:
    """Tiling plan for C[M,N] += A[M,K] @ B[K,N]."""

    m: int
    n: int
    k: int
    tile: int              #: square CMX tile edge
    bytes_per_element: int
    shaves: int
    tiles_m: int
    tiles_n: int
    tiles_k: int

    @property
    def macs(self) -> int:
        """Multiply-accumulates of the full GEMM."""
        return self.m * self.n * self.k

    @property
    def flops(self) -> int:
        """Floating-point operations (2 per MAC)."""
        return 2 * self.macs

    @property
    def tile_bytes(self) -> int:
        """CMX bytes one (A, B, C) tile set occupies."""
        return 3 * self.tile * self.tile * self.bytes_per_element

    @property
    def ddr_traffic_bytes(self) -> int:
        """Bytes streamed from DDR across the whole GEMM.

        Every A-tile is read once per N-tile column, every B-tile once
        per M-tile row; C is read+written once.
        """
        e = self.bytes_per_element
        a = self.m * self.k * self.tiles_n * e
        b = self.k * self.n * self.tiles_m * e
        c = 2 * self.m * self.n * e
        return a + b + c


def plan_gemm(m: int, n: int, k: int, *,
              bytes_per_element: int = 2,
              shaves: int = 12) -> GemmPlan:
    """Choose the largest square tile whose (A,B,C) set fits a slice.

    Each SHAVE works out of its affinity slice (the Ionica design), so
    the budget is one 128 KB slice, half reserved for double buffering.
    """
    if min(m, n, k) < 1:
        raise CompileError("GEMM dimensions must be >= 1")
    if shaves < 1:
        raise CompileError("shaves must be >= 1")
    budget = int(CMX_SLICE_BYTES) // 2
    # 3 tiles of t*t elements must fit: t = sqrt(budget / (3*e)).
    t = int(np.sqrt(budget / (3 * bytes_per_element)))
    t = max(8, min(t, m, n, k))
    return GemmPlan(
        m=m, n=n, k=k, tile=t, bytes_per_element=bytes_per_element,
        shaves=shaves,
        tiles_m=-(-m // t), tiles_n=-(-n // t), tiles_k=-(-k // t))


def gemm(a: np.ndarray, b: np.ndarray,
         policy: PrecisionPolicy | None = None) -> np.ndarray:
    """Functional GEMM under a precision policy.

    FP16 policy rounds the inputs and the result through binary16
    (accumulation stays FP32, like the VAU's wide accumulators).
    """
    policy = policy or PrecisionPolicy.fp16()
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise CompileError(
            f"incompatible GEMM shapes {a.shape} x {b.shape}")
    aq = policy.quantize_activation_array(a)
    bq = policy.quantize_activation_array(b)
    return policy.quantize_activation_array(aq @ bq)


def simulate_gemm(chip: Myriad2, plan: GemmPlan,
                  efficiency: float = 0.7) -> Event:
    """Run the planned GEMM on the chip model (process event).

    The event's value is the elapsed seconds.  Efficiency 0.7 reflects
    the hand-tuned inner kernels the Ionica study describes (better
    than the generic inference kernels, below peak because of tile
    edges and pipeline fill).
    """
    total_tiles = plan.tiles_m * plan.tiles_n * plan.tiles_k
    per_tile_macs = plan.tile ** 3
    e = plan.bytes_per_element
    per_tile = KernelWorkload(
        macs=per_tile_macs,
        load_bytes=2 * plan.tile * plan.tile * e,   # A and B tiles
        store_bytes=plan.tile * plan.tile * e,      # C writeback
        setup_cycles=200,
    )
    kernel = ComputeKernel(
        name=f"lama_gemm_{plan.m}x{plan.n}x{plan.k}",
        per_item=per_tile,
        work_items=total_tiles,
        efficiency=efficiency,
        fp16=(e == 2),
    )
    launcher = KernelLauncher(chip)
    return launcher.launch(kernel, shaves=plan.shaves)


def gemm_gflops_per_watt(plan: GemmPlan, seconds: float,
                         watts: float) -> tuple[float, float]:
    """(Gflops, Gflops/W) for a completed GEMM — the Ionica metric."""
    if seconds <= 0 or watts <= 0:
        raise CompileError("seconds and watts must be positive")
    gflops = plan.flops / seconds / 1e9
    return gflops, gflops / watts
