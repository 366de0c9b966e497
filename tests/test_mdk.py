"""Tests for the MDK analogue: kernels, LAMA GEMM, OpenCL queue."""

import numpy as np
import pytest

from repro.errors import CompileError, SimulationError
from repro.mdk import (
    Buffer,
    CommandQueue,
    ComputeKernel,
    Context,
    KernelLauncher,
    gemm,
    gemm_gflops_per_watt,
    plan_gemm,
    simulate_gemm,
)
from repro.numerics import PrecisionPolicy
from repro.sim import Environment
from repro.vpu import Myriad2
from repro.vpu.shave import KernelWorkload


def _kernel(name="k", macs=8000, items=12, eff=1.0):
    return ComputeKernel(
        name=name,
        per_item=KernelWorkload(macs=macs, setup_cycles=0),
        work_items=items,
        efficiency=eff,
    )


# --- kernels -----------------------------------------------------------------

def test_kernel_validation():
    with pytest.raises(SimulationError):
        _kernel(items=0)
    with pytest.raises(SimulationError):
        _kernel(eff=0)


def test_kernel_total_macs():
    assert _kernel(macs=100, items=7).total_macs() == 700


def test_launcher_runs_and_profiles():
    env = Environment()
    chip = Myriad2(env)
    launcher = KernelLauncher(chip)
    seconds = env.run(until=launcher.launch(_kernel()))
    assert seconds > 0
    assert env.now == pytest.approx(seconds)
    prof = launcher.profiles["k"]
    assert prof.launches == 1
    assert prof.total_macs == 8000 * 12
    assert prof.gflops() > 0
    assert prof.shaves_used == [12]


def test_launcher_shave_scaling():
    def run(shaves):
        env = Environment()
        chip = Myriad2(env)
        launcher = KernelLauncher(chip)
        return env.run(until=launcher.launch(
            _kernel(macs=80000, items=48), shaves=shaves))

    t1, t12 = run(1), run(12)
    assert t1 / t12 == pytest.approx(12, rel=0.05)


def test_launcher_invalid_shaves():
    env = Environment()
    launcher = KernelLauncher(Myriad2(env))
    with pytest.raises(SimulationError):
        launcher.launch(_kernel(), shaves=0)
    with pytest.raises(SimulationError):
        launcher.launch(_kernel(), shaves=13)


def test_launcher_gates_islands():
    env = Environment()
    chip = Myriad2(env)
    launcher = KernelLauncher(chip)
    env.run(until=launcher.launch(_kernel()))
    assert not chip.islands._on["shave0"]
    assert chip.islands.energy_joules() > 0


# --- LAMA GEMM -------------------------------------------------------------------

def test_plan_gemm_tile_fits_slice():
    plan = plan_gemm(1024, 1024, 1024)
    # 3 fp16 tiles must fit half a 128 KiB slice.
    assert plan.tile_bytes <= 64 * 1024
    assert plan.tile >= 8
    assert plan.macs == 1024 ** 3
    assert plan.flops == 2 * 1024 ** 3


def test_plan_gemm_small_matrices_clamp_tile():
    plan = plan_gemm(16, 16, 16)
    assert plan.tile <= 16
    assert plan.tiles_m == plan.tiles_n == plan.tiles_k == 1


def test_plan_gemm_validation():
    with pytest.raises(CompileError):
        plan_gemm(0, 4, 4)
    with pytest.raises(CompileError):
        plan_gemm(4, 4, 4, shaves=0)


def test_plan_ddr_traffic_grows_with_size():
    small = plan_gemm(256, 256, 256)
    large = plan_gemm(1024, 1024, 1024)
    assert large.ddr_traffic_bytes > small.ddr_traffic_bytes


def test_functional_gemm_fp32_exact():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(16, 8)).astype(np.float32)
    b = rng.normal(size=(8, 12)).astype(np.float32)
    out = gemm(a, b, PrecisionPolicy.fp32())
    np.testing.assert_allclose(out, a @ b, rtol=1e-6)


def test_functional_gemm_fp16_rounds():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(8, 8)).astype(np.float32)
    b = rng.normal(size=(8, 8)).astype(np.float32)
    out16 = gemm(a, b, PrecisionPolicy.fp16())
    exact = a @ b
    assert not np.array_equal(out16, exact)
    np.testing.assert_allclose(out16, exact, atol=0.05)


def test_functional_gemm_shape_check():
    with pytest.raises(CompileError):
        gemm(np.zeros((4, 3)), np.zeros((4, 3)))


def test_simulate_gemm_timing_reasonable():
    env = Environment()
    chip = Myriad2(env)
    plan = plan_gemm(512, 512, 512)
    seconds = env.run(until=simulate_gemm(chip, plan))
    gflops, gflops_w = gemm_gflops_per_watt(plan, seconds, watts=0.9)
    # FP16 peak is 12 shaves * 8 MACs * 2 flops * 600 MHz = 115 Gflops;
    # a tuned tiled kernel lands well below peak but within 2x.
    assert 30 < gflops < 115
    assert gflops_w > 30  # versus ~2 Gflops/W for the 80 W Xeon


def test_gflops_per_watt_validation():
    plan = plan_gemm(64, 64, 64)
    with pytest.raises(CompileError):
        gemm_gflops_per_watt(plan, 0, 1)
    with pytest.raises(CompileError):
        gemm_gflops_per_watt(plan, 1, 0)


# --- OpenCL-style queue --------------------------------------------------------------

def test_context_buffer_lifecycle():
    env = Environment()
    ctx = Context(env)
    free0 = ctx.chip.ddr.free
    buf = ctx.alloc_buffer(1000)
    assert ctx.chip.ddr.free == free0 - 1000
    buf.release()
    buf.release()  # idempotent
    assert ctx.chip.ddr.free == free0
    with pytest.raises(SimulationError):
        Buffer(ctx, 0)


def test_queue_in_order_execution():
    env = Environment()
    ctx = Context(env)
    q = CommandQueue(ctx)
    k1 = _kernel("k1", macs=80000, items=12)
    k2 = _kernel("k2", macs=80000, items=12)
    e1 = q.enqueue_kernel(k1)
    q.enqueue_kernel(k2)
    env.run(until=q.finish())
    t_total = env.now
    # Serialised: total ~= 2x one kernel.
    env2 = Environment()
    ctx2 = Context(env2)
    q2 = CommandQueue(ctx2)
    env2.run(until=q2.enqueue_kernel(_kernel("k", macs=80000, items=12)))
    assert t_total == pytest.approx(2 * env2.now, rel=0.05)
    assert e1.processed
    assert q.enqueued == 2


def test_queue_transfers_and_bounds():
    env = Environment()
    ctx = Context(env)
    q = CommandQueue(ctx)
    buf = ctx.alloc_buffer(4_000_000)
    q.enqueue_write(buf)
    q.enqueue_read(buf, nbytes=1_000_000)
    env.run(until=q.finish())
    assert env.now > 0
    assert ctx.chip.dma.bytes_moved == 5_000_000
    with pytest.raises(SimulationError):
        q.enqueue_write(buf, nbytes=5_000_000)
    with pytest.raises(SimulationError):
        q.enqueue_read(buf, nbytes=5_000_000)


def test_queue_finish_on_empty_queue():
    env = Environment()
    q = CommandQueue(Context(env))
    env.run(until=q.finish())
    assert env.now == 0.0


def test_context_release_all():
    env = Environment()
    ctx = Context(env)
    free0 = ctx.chip.ddr.free
    ctx.alloc_buffer(100)
    ctx.alloc_buffer(200)
    ctx.release_all()
    assert ctx.chip.ddr.free == free0
