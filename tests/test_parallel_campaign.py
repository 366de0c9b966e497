"""``--jobs N`` must be a pure wall-clock knob: merged results are
positionally and numerically identical to the serial run.

The figure drivers only fan out configurations whose serial execution
carries no state between items (jitter-free timing runs, per-subset
functional runs on fresh frameworks), so parallel results can be —
and are — compared for exact equality, not tolerance.
"""

import pytest

from repro.harness import figures
from repro.harness.experiment import parallel_map


def _series_fingerprint(result):
    return [(s.label, s.x, s.y, s.yerr) for s in result.series]


# --- parallel_map mechanics ---------------------------------------------------

def test_parallel_map_serial_fallback():
    assert parallel_map(abs, [-1, 2, -3], jobs=1) == [1, 2, 3]
    assert parallel_map(abs, [], jobs=4) == []
    assert parallel_map(abs, [-7], jobs=4) == [7]


def test_parallel_map_preserves_order():
    items = list(range(20))
    assert parallel_map(str, items, jobs=3) == [str(i) for i in items]


def test_parallel_map_serial_raises():
    def boom(_):
        raise RuntimeError("worker failed")

    with pytest.raises(RuntimeError, match="worker failed"):
        parallel_map(boom, [1, 2], jobs=1)


# --- figure equivalence -------------------------------------------------------

@pytest.mark.parametrize("fig,kwargs", [
    (figures.fig6a_throughput_per_subset,
     {"num_subsets": 2, "images_per_subset": 24}),
    (figures.fig6b_normalized_scaling, {"images": 24}),
    (figures.fig8a_throughput_per_watt, {"images": 24}),
    (figures.fig8b_projected_throughput, {"images": 24}),
])
def test_timing_figure_jobs_equivalence(fig, kwargs):
    serial = fig(jobs=1, **kwargs)
    fanned = fig(jobs=2, **kwargs)
    assert _series_fingerprint(serial) == _series_fingerprint(fanned)


def _uncached(fig, jobs):
    """*fig* at the smoke scale, computing its subsets afresh (Fig. 7a
    and 7b keep their per-subset points between calls)."""
    figures._PRECISION_POINTS.clear()
    return fig(scale="smoke", jobs=jobs)


def test_fig7a_jobs_equivalence_smoke():
    serial = _uncached(figures.fig7a_top1_error, jobs=1)
    fanned = _uncached(figures.fig7a_top1_error, jobs=2)
    assert _series_fingerprint(serial) == _series_fingerprint(fanned)


def test_fig7b_jobs_equivalence_smoke():
    serial = _uncached(figures.fig7b_confidence_difference, jobs=1)
    fanned = _uncached(figures.fig7b_confidence_difference, jobs=2)
    assert _series_fingerprint(serial) == _series_fingerprint(fanned)


def test_fig6a_jitter_stays_serial_and_works():
    # Jitter threads RNG state through the serial run order, so the
    # driver must quietly ignore jobs>1 rather than diverge.
    res = figures.fig6a_throughput_per_subset(
        num_subsets=2, images_per_subset=24, jitter=0.05, jobs=2)
    assert len(res.series) == 3
    assert all(len(s.y) == 2 for s in res.series)


# --- CLI sweeps ---------------------------------------------------------------

def _main_output(capsys, argv):
    from repro.harness.cli import main

    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_cli_serve_sweep_jobs_equivalence(capsys):
    base = ["serve-sweep", "--configs", "vpu1,vpu2", "--requests",
            "32", "--steps", "3"]
    rc1, out1 = _main_output(capsys, base + ["--jobs", "1"])
    rc2, out2 = _main_output(capsys, base + ["--jobs", "2"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_cli_chaos_run_jobs_equivalence(capsys):
    base = ["chaos-run", "--devices", "3", "--images", "24"]
    rc1, out1 = _main_output(capsys, base + ["--jobs", "1"])
    rc2, out2 = _main_output(capsys, base + ["--jobs", "2"])
    assert rc1 == rc2 == 0
    assert out1 == out2
