"""Integration tests: the figure drivers reproduce the paper's shapes.

Timing figures run at paper-scale geometry (fast — non-functional);
precision figures run at the smoke scale to keep the suite quick.
Tolerances check *shape*: orderings, ratios, crossovers.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.harness import (
    SCALES,
    bar_chart,
    fig6a_throughput_per_subset,
    fig6b_normalized_scaling,
    fig7a_top1_error,
    fig7b_confidence_difference,
    fig8a_throughput_per_watt,
    fig8b_projected_throughput,
    get_context,
    headline_table,
    line_chart,
    render_comparison,
    render_figure_table,
)

TIMING_IMAGES = 64  # enough for steady state; keeps the suite fast


# --- experiment context ------------------------------------------------------

def test_scales_registered():
    assert {"paper", "default", "smoke"} <= set(SCALES)
    assert SCALES["paper"].images_per_subset == 10_000
    assert SCALES["paper"].model == "googlenet"


def test_get_context_unknown_scale():
    with pytest.raises(ReproError):
        get_context("galactic")


def test_smoke_context_build_and_cache():
    ctx = get_context("smoke")
    assert ctx.network is get_context("smoke").network  # cached
    assert ctx.calibration.noise_sigma > 0
    assert ctx.dataset.num_subsets == 5
    assert ctx.graph.precision.value == "fp16"


# --- fig6a ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig6a():
    return fig6a_throughput_per_subset(images_per_subset=TIMING_IMAGES)


def test_fig6a_reproduces_paper_throughputs(fig6a):
    cpu = np.mean(fig6a.by_label("cpu").y)
    gpu = np.mean(fig6a.by_label("gpu").y)
    vpu = np.mean(fig6a.by_label("vpu").y)
    # Shape: VPU ~ GPU > CPU, with the paper's ~40% CPU gap.
    assert cpu == pytest.approx(44.0, rel=0.06)
    assert gpu == pytest.approx(74.2, rel=0.06)
    assert vpu == pytest.approx(77.2, rel=0.06)
    assert vpu > gpu > cpu


def test_fig6a_has_five_subsets(fig6a):
    for s in fig6a.series:
        assert len(s.x) == 5
        assert s.x[0] == "Set-1"


# --- fig6b -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig6b():
    return fig6b_normalized_scaling(images=TIMING_IMAGES)


def test_fig6b_vpu_near_ideal_scaling(fig6b):
    vpu = fig6b.by_label("vpu").y
    assert vpu[0] == pytest.approx(1.0)
    assert vpu[1] == pytest.approx(2.0, rel=0.1)
    assert vpu[3] == pytest.approx(7.8, rel=0.1)  # close to 8x
    assert vpu[3] < 8.0  # but with the paper's small penalty


def test_fig6b_cpu_barely_scales(fig6b):
    cpu = fig6b.by_label("cpu").y
    assert cpu[3] == pytest.approx(1.15, abs=0.05)  # 14.7% gain


def test_fig6b_gpu_moderate_scaling(fig6b):
    gpu = fig6b.by_label("gpu").y
    assert gpu[3] == pytest.approx(1.9, abs=0.1)  # 92.5% gain


def test_fig6b_ordering_at_batch8(fig6b):
    at8 = {s.label: s.y[3] for s in fig6b.series}
    assert at8["vpu"] > at8["gpu"] > at8["cpu"]


# --- fig8a ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig8a():
    return fig8a_throughput_per_watt(images=TIMING_IMAGES)


def test_fig8a_vpu_over_3x_better(fig8a):
    cpu = fig8a.by_label("cpu").y
    gpu = fig8a.by_label("gpu").y
    vpu = fig8a.by_label("vpu").y
    # Paper: over 3x higher throughput/W at every batch size.
    for b in range(4):
        assert vpu[b] > 3 * max(cpu[b], gpu[b])


def test_fig8a_paper_anchors(fig8a):
    assert fig8a.by_label("vpu").y[0] == pytest.approx(3.97, rel=0.05)
    assert fig8a.by_label("cpu").y[3] == pytest.approx(0.55, rel=0.05)
    assert fig8a.by_label("gpu").y[3] == pytest.approx(0.93, rel=0.05)


def test_fig8a_vpu_ratio_flat_with_devices(fig8a):
    vpu = fig8a.by_label("vpu").y
    # Adding sticks barely changes img/W (small transfer penalty only).
    assert min(vpu) > 0.95 * max(vpu)


# --- fig8b --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig8b():
    return fig8b_projected_throughput(images=TIMING_IMAGES)


def test_fig8b_projection_and_plateaus(fig8b):
    cpu = fig8b.by_label("cpu").y
    gpu = fig8b.by_label("gpu").y
    vpu = fig8b.by_label("vpu").y
    assert cpu[-1] == pytest.approx(44.5, rel=0.05)
    assert gpu[-1] == pytest.approx(79.9, rel=0.05)
    assert vpu[-1] == pytest.approx(153.0, rel=0.05)
    # Crossover shape: VPU behind both at batch 1-4, ahead at 8+.
    assert vpu[0] < cpu[0] and vpu[0] < gpu[0]
    assert vpu[3] > gpu[3] > cpu[3]
    # Projected factors over CPU/GPU (paper: 3.4x and 1.9x).
    assert vpu[-1] / cpu[-1] == pytest.approx(3.4, abs=0.2)
    assert vpu[-1] / gpu[-1] == pytest.approx(1.9, abs=0.15)


# --- fig7a / fig7b (functional, smoke scale) -------------------------------------------

@pytest.fixture(scope="module")
def fig7a():
    return fig7a_top1_error(scale="smoke")


def test_fig7a_errors_near_target(fig7a):
    cpu = np.array(fig7a.by_label("cpu_fp32").y)
    vpu = np.array(fig7a.by_label("vpu_fp16").y)
    # Calibrated to ~32%; smoke scale tolerates wide sampling noise.
    assert 0.1 < cpu.mean() < 0.55
    assert 0.1 < vpu.mean() < 0.55


def test_fig7a_fp16_delta_negligible(fig7a):
    cpu = np.array(fig7a.by_label("cpu_fp32").y)
    vpu = np.array(fig7a.by_label("vpu_fp16").y)
    # Paper: 0.09 percentage points; allow a few points at smoke scale.
    assert abs(cpu.mean() - vpu.mean()) < 0.05


def test_fig7a_gpu_equivalent_to_cpu(fig7a):
    cpu = np.array(fig7a.by_label("cpu_fp32").y)
    gpu = np.array(fig7a.by_label("gpu_fp32").y)
    np.testing.assert_array_equal(cpu, gpu)  # same FP32 path


def test_fig7b_confidence_diff_small_but_nonzero():
    fig7b = fig7b_confidence_difference(scale="smoke", num_subsets=2)
    diffs = np.array(fig7b.series[0].y)
    assert np.all(diffs > 0)
    assert np.all(diffs < 0.05)  # paper: 0.44%


def test_fig7a_and_fig7b_share_one_campaign(monkeypatch):
    from repro.harness import figures

    monkeypatch.setattr(figures, "_PRECISION_POINTS", {})
    calls = []
    runs = figures._precision_runs

    def counting(ctx, subset, *args, **kwargs):
        calls.append(subset)
        return runs(ctx, subset, *args, **kwargs)

    monkeypatch.setattr(figures, "_precision_runs", counting)
    fig7a = fig7a_top1_error(scale="smoke", num_subsets=2)
    fig7b = fig7b_confidence_difference(scale="smoke", num_subsets=2)
    assert calls == [0, 1]
    assert len(fig7a.series[0].y) == len(fig7b.series[0].y) == 2
    # Another subset count is another campaign.
    fig7b_confidence_difference(scale="smoke", num_subsets=1)
    assert calls == [0, 1, 0]


# --- headline table ----------------------------------------------------------------------

def test_headline_table_timing_rows():
    rows = headline_table(images=TIMING_IMAGES, error_scale=None)
    by = {name: (paper, measured) for name, paper, measured in rows}
    paper, measured = by["vpu_single_ms"]
    assert measured == pytest.approx(100.7, rel=0.03)
    paper, measured = by["cpu_vs_vpu_slowdown_pct"]
    assert measured == pytest.approx(40.7, abs=3.0)
    paper, measured = by["vpu_single_vs_cpu_factor"]
    assert measured == pytest.approx(4.0, abs=0.4)
    paper, measured = by["tdp_reduction_sticks"]
    assert measured == pytest.approx(4.0)


# --- renderers -----------------------------------------------------------------------------

def test_render_figure_table(fig6b):
    out = render_figure_table(fig6b)
    assert "fig6b" in out
    assert "cpu" in out and "vpu" in out
    assert "paper reference" in out


def test_render_comparison():
    out = render_comparison([("metric_a", 2.0, 2.1)])
    assert "metric_a" in out and "1.050" in out


def test_bar_chart_renders(fig6a):
    out = bar_chart(fig6a)
    assert "fig6a" in out
    assert "|" in out and "#" in out


def test_line_chart_renders(fig8b):
    out = line_chart(fig8b)
    assert "fig8b" in out
    assert "=cpu" in out and "=vpu" in out
