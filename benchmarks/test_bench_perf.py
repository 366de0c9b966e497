"""Wall-clock floors for the perf-harness speed claims.

These assertions are intentionally *outside* the tier-1 ``tests/``
run: they measure real wall-clock, which is meaningful on a quiet
benchmark machine and noise on a loaded CI box.  The tier-1 suite
pins behaviour; this file pins speed.

PR-9 claims pinned here:

* the hybrid fluid/DES model turns a diurnal day into milliseconds
  of wall-clock — the margin behind the >=50x claim;
* the hot paths from PR-4 (lean DES kernel, cached im2col forward)
  have not regressed against the baseline recorded in
  ``BENCH_PR9.json`` (rescaled by the host-calibration score).
"""

from pathlib import Path

import pytest

from repro.harness import perf

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_doc():
    path = REPO_ROOT / perf.BENCH_FILENAME
    if not path.exists():
        pytest.skip(f"{perf.BENCH_FILENAME} not present")
    return perf.load_bench(path)


def _rescaled(doc, workload, *, key="baseline"):
    """Recorded rate for this machine: value x host-speed ratio.

    Calibration is best-of-3 — interpreter-speed probes are only ever
    slowed by noise, never sped up, so the max is the estimate.
    """
    src = doc[key] if key == "baseline" else doc
    base = src["modes"]["full"][workload]["value"]
    ref_calib = src.get("calibration_ops_per_sec") or 0.0
    now_calib = max(perf.calibrate_host() for _ in range(3))
    scale = (now_calib / ref_calib) if ref_calib else 1.0
    return base * scale


def test_fluid_day_is_fast(bench_doc):
    """A 200k-request diurnal day must hold the committed simulated
    day-rate within noise (rescaled for host speed)."""
    floor = 0.25 * _rescaled(bench_doc, "fluid_day_s", key="modes")
    sample = perf.bench_fluid(requests=200_000, repeats=3)
    print(f"\nfluid day: {sample.value:.2f} day/s "
          f"(floor {floor:.2f}, wall "
          f"{sample.detail['day_wall_s'] * 1e3:.1f} ms)")
    assert sample.value >= floor


def test_sim_kernel_holds_baseline(bench_doc):
    """The lean DES heap kernel must not regress against the rate
    recorded as this file's baseline (PR-4's committed run)."""
    floor = 0.7 * _rescaled(bench_doc, "sim_events_per_sec")
    sample = perf.bench_sim(n_items=4000, repeats=5)
    print(f"\nsim kernel: {sample.value:,.0f} events/s "
          f"(floor {floor:,.0f})")
    assert sample.value >= floor


def test_forward_holds_baseline(bench_doc):
    """Cached im2col + fused GEMM must hold the recorded FP32
    forward throughput at batch 8 within noise."""
    floor = 0.7 * _rescaled(bench_doc, "googlenet_fp32_img_s")
    sample = perf.bench_forward("fp32", forwards=8, repeats=4)
    print(f"\nfp32 forward: {sample.value:.1f} img/s "
          f"(floor {floor:.1f})")
    assert sample.value >= floor
