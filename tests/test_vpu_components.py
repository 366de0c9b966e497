"""Unit tests for VPU component models: clock, CMX, DDR, DMA, SHAVE,
SIPP, power islands."""

import pytest

from repro.errors import AllocationError, PowerError, SimulationError
from repro.sim import Environment
from repro.units import KiB, MHZ
from repro.vpu import (
    CMXMemory,
    Clock,
    DDRChannel,
    DMAEngine,
    PowerIslands,
    ShaveConfig,
    ShaveProcessor,
    SIPPPipeline,
)
from repro.vpu.cmx import CMX_TOTAL_BYTES
from repro.vpu.shave import KernelWorkload
from repro.vpu.sipp import SIPP_FILTERS


# --- clock ------------------------------------------------------------------

def test_clock_roundtrip():
    c = Clock(600 * MHZ)
    assert c.to_seconds(600e6) == pytest.approx(1.0)
    assert c.period == pytest.approx(1 / 600e6)


def test_clock_validation():
    with pytest.raises(ValueError):
        Clock(0)


# --- CMX ---------------------------------------------------------------------

def test_cmx_geometry():
    cmx = CMXMemory()
    assert cmx.num_slices == 16
    assert cmx.capacity == 2 * 1024 * KiB  # 2 MiB
    assert cmx.capacity == CMX_TOTAL_BYTES
    assert cmx.free == cmx.capacity


def test_cmx_alloc_single_slice():
    cmx = CMXMemory()
    blocks = cmx.alloc(1000, tag="weights")
    assert len(blocks) == 1
    assert cmx.used == 1000
    assert cmx._slices[0].used == 1000
    cmx.free_blocks(blocks)
    assert cmx.used == 0


def test_cmx_alloc_spans_slices():
    cmx = CMXMemory(slices=4, slice_bytes=1000)
    blocks = cmx.alloc(2500)
    assert len(blocks) == 3
    assert cmx.used == 2500
    assert [b.slice_index for b in blocks] == [0, 1, 2]


def test_cmx_prefer_slice():
    cmx = CMXMemory(slices=4, slice_bytes=1000)
    blocks = cmx.alloc(500, prefer_slice=2)
    assert blocks[0].slice_index == 2


def test_cmx_exhaustion_is_atomic():
    cmx = CMXMemory(slices=2, slice_bytes=1000)
    cmx.alloc(1500)
    with pytest.raises(AllocationError):
        cmx.alloc(1000)
    assert cmx.used == 1500  # failed alloc left no partial blocks


def test_cmx_double_free_detected():
    cmx = CMXMemory()
    blocks = cmx.alloc(100)
    cmx.free_blocks(blocks)
    with pytest.raises(AllocationError):
        cmx.free_blocks(blocks)


def test_cmx_reset():
    cmx = CMXMemory()
    cmx.alloc(5000)
    cmx.reset()
    assert cmx.used == 0


def test_cmx_validation():
    with pytest.raises(AllocationError):
        CMXMemory(slices=0)
    cmx = CMXMemory()
    with pytest.raises(AllocationError):
        cmx.alloc(0)
    with pytest.raises(AllocationError):
        cmx.alloc(100, prefer_slice=99)


def test_cmx_transfer_seconds():
    cmx = CMXMemory()
    assert cmx.transfer_seconds(70e9) == pytest.approx(1.0)
    with pytest.raises(AllocationError):
        cmx.transfer_seconds(-1)


# --- DDR -------------------------------------------------------------------------

def test_ddr_capacity_4gb():
    ddr = DDRChannel()
    assert ddr.capacity == 4 * 1024 ** 3


def test_ddr_alloc_release():
    ddr = DDRChannel(capacity=1000)
    h = ddr.alloc(600)
    assert ddr.free == 400
    with pytest.raises(AllocationError):
        ddr.alloc(500)
    ddr.release(h)
    assert ddr.free == 1000
    with pytest.raises(AllocationError):
        ddr.release(1)


def test_ddr_transfer_accounting():
    env = Environment()
    ddr = DDRChannel()
    dma = DMAEngine(ddr)
    dma.bind(env)
    dma.transfer(4_000_000)
    dma.transfer(1000, to_ddr=True)
    env.run()
    assert ddr.bytes_read == 4_000_000
    assert ddr.bytes_written == 1000


# --- DMA -----------------------------------------------------------------------------

def test_dma_static_cost():
    dma = DMAEngine(DDRChannel())
    # 4 GB/s DDR bound dominates the 10 GB/s DMA peak.
    t = dma.transfer_seconds(4e9)
    assert t == pytest.approx(1.0 + dma.setup_s + dma.ddr.latency)


def test_dma_requires_bind_for_des():
    dma = DMAEngine(DDRChannel())
    with pytest.raises(AllocationError):
        dma.transfer(100)


def test_dma_channels_limit_concurrency():
    env = Environment()
    ddr = DDRChannel()
    dma = DMAEngine(ddr, channels=1)
    dma.bind(env)
    done = []

    def proc():
        a = dma.transfer(4_000_000)  # ~1 ms each
        b = dma.transfer(4_000_000)
        yield a & b
        done.append(env.now)

    env.process(proc())
    env.run()
    # Single channel: the two 1 ms transfers serialise (~2 ms).
    assert done[0] == pytest.approx(2e-3, rel=0.1)
    assert dma.transfers == 2
    assert dma.bytes_moved == 8_000_000


def test_dma_parallel_channels():
    env = Environment()
    dma = DMAEngine(DDRChannel(), channels=2)
    dma.bind(env)
    done = []

    def proc():
        yield dma.transfer(4_000_000) & dma.transfer(4_000_000)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done[0] == pytest.approx(1e-3, rel=0.1)


# --- SHAVE ------------------------------------------------------------------------------

def test_shave_peak_mac_rates():
    cfg = ShaveConfig()
    assert cfg.macs_per_cycle(fp16=True) == 8
    assert cfg.macs_per_cycle(fp16=False) == 4


def test_shave_kernel_cycles_compute_bound():
    s = ShaveProcessor(0)
    work = KernelWorkload(macs=8000, load_bytes=0, store_bytes=0,
                          setup_cycles=0)
    # 8000 MACs / 8 lanes = 1000 cycles at full efficiency.
    assert s.kernel_cycles(work) == 1000
    assert s.kernel_cycles(work, efficiency=0.5) == 2000


def test_shave_kernel_cycles_memory_bound():
    s = ShaveProcessor(0)
    # 16 bytes/cycle LSU; 32000 bytes -> 2000 cycles > tiny compute.
    work = KernelWorkload(macs=80, load_bytes=16000, store_bytes=16000,
                          setup_cycles=0)
    assert s.kernel_cycles(work) == 2000


def test_shave_vliw_overlap_takes_max():
    s = ShaveProcessor(0)
    work = KernelWorkload(macs=8000, load_bytes=8000, store_bytes=8000,
                          setup_cycles=100)
    # compute = 1000, memory = 1000 -> max 1000 + setup 100.
    assert s.kernel_cycles(work) == 1100


def test_shave_fp32_halves_throughput():
    s = ShaveProcessor(0)
    work = KernelWorkload(macs=8000, setup_cycles=0)
    assert s.kernel_cycles(work, fp16=False) == 2000


def test_shave_efficiency_validation():
    s = ShaveProcessor(0)
    work = KernelWorkload(macs=10)
    with pytest.raises(SimulationError):
        s.kernel_cycles(work, efficiency=0)
    with pytest.raises(SimulationError):
        s.kernel_cycles(work, efficiency=1.5)


def test_shave_utilization_accounting():
    s = ShaveProcessor(0)
    s.record_execution(500)
    s.record_execution(300)
    assert s.busy_cycles == 800
    assert s.kernels_run == 2


def test_workload_validation():
    with pytest.raises(SimulationError):
        KernelWorkload(macs=-1)


# --- SIPP ---------------------------------------------------------------------------------

def test_sipp_filter_inventory():
    # The kernels the paper names in §II-A must be present.
    for name in ("tone_map", "harris", "hog_edge", "luma_denoise",
                 "chroma_denoise"):
        assert name in SIPP_FILTERS
    assert SIPP_FILTERS["harris"].stencil == 5


def test_sipp_one_pixel_per_cycle():
    sipp = SIPPPipeline(freq_hz=600 * MHZ)
    # tone_map: 1 px/cycle -> 600e6 px in 1 s (+ setup).
    t = sipp.filter_seconds("tone_map", 600_000, 1000)
    assert t == pytest.approx(1.0, rel=0.01)


def test_sipp_unknown_filter():
    sipp = SIPPPipeline(freq_hz=1000 * MHZ)
    with pytest.raises(SimulationError):
        sipp.filter_seconds("nope", 10, 10)


def test_sipp_serialises_same_filter():
    env = Environment()
    sipp = SIPPPipeline(freq_hz=600 * MHZ)
    sipp.bind(env)
    done = []

    def proc():
        a = sipp.run_filter("harris", 6000, 1000)  # 0.02 s each
        b = sipp.run_filter("harris", 6000, 1000)
        yield a & b
        done.append(env.now)

    env.process(proc())
    env.run()
    single = sipp.filter_seconds("harris", 6000, 1000)
    assert done[0] == pytest.approx(2 * single, rel=0.01)
    assert sipp.invocations["harris"] == 2


def test_sipp_distinct_filters_run_concurrently():
    env = Environment()
    sipp = SIPPPipeline(freq_hz=600 * MHZ)
    sipp.bind(env)
    done = []

    def proc():
        a = sipp.run_filter("harris", 6000, 1000)
        b = sipp.run_filter("tone_map", 6000, 1000)
        yield a & b
        done.append(env.now)

    env.process(proc())
    env.run()
    slowest = sipp.filter_seconds("harris", 6000, 1000)
    assert done[0] == pytest.approx(slowest, rel=0.01)


def test_sipp_requires_bind():
    sipp = SIPPPipeline(freq_hz=1000 * MHZ)
    with pytest.raises(SimulationError):
        sipp.run_filter("harris", 10, 10)


# --- power islands ------------------------------------------------------------------------

def test_islands_count_is_twenty():
    env = Environment()
    p = PowerIslands(env)
    assert p.count == 20


def test_islands_peak_near_chip_tdp():
    env = Environment()
    p = PowerIslands(env)
    # All islands on: ~0.9 W, the Myriad 2 TDP.
    assert 0.85 <= sum(p.islands.values()) <= 0.95


def test_island_gating():
    env = Environment()
    p = PowerIslands(env)
    base = p.current_power()
    p.power_on("shave0")
    assert p.current_power() > base
    p.power_off("shave0")
    assert p.current_power() == pytest.approx(base)


def test_always_on_cannot_gate():
    env = Environment()
    p = PowerIslands(env)
    with pytest.raises(PowerError):
        p.power_off("always_on")


def test_unknown_island():
    env = Environment()
    p = PowerIslands(env)
    with pytest.raises(PowerError):
        p.power_on("gpu")


def test_gating_several_islands_records_one_sample():
    env = Environment()
    batched, single = PowerIslands(env), PowerIslands(env)
    names = ["shave0", "shave1", "cmx", "ddr_if"]
    batched.power_on(*names)
    for name in names:
        single.power_on(name)
    assert len(batched.monitor) == 2
    assert batched.monitor.last == single.monitor.last
    batched.power_on(*names)   # nothing changes, nothing recorded
    assert len(batched.monitor) == 2
    batched.power_off(*names)
    for name in names:
        single.power_off(name)
    assert len(batched.monitor) == 3
    assert batched.monitor.last == single.monitor.last
    with pytest.raises(PowerError):
        batched.power_on("shave0", "gpu")
    with pytest.raises(PowerError):
        batched.power_off("shave0", "always_on")
    # A rejected call changes no island.
    assert not batched._on["shave0"]


def test_energy_integration():
    env = Environment()
    p = PowerIslands(env)

    def proc():
        p.power_on(*p.islands)
        yield env.timeout(10)
        p.power_off(*(name for name in p.islands if name != "always_on"))
        yield env.timeout(10)

    env.process(proc())
    env.run()
    energy = p.energy_joules()
    # 10 s at ~0.9 W plus 10 s mostly gated.
    assert 9.0 < energy < 11.0
