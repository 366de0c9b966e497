"""Unit tests for the wall-clock perf harness and its CI gate.

Everything here is logic-only — no timing assertions, so the suite
stays robust on loaded CI machines.  The wall-clock speedup floors
live in ``benchmarks/test_bench_perf.py``, outside the tier-1 run.
"""

import json

import pytest

from repro.harness import perf
from repro.harness.perf import BenchSample


def _sample(name, value, metric="u/s"):
    return BenchSample(name=name, metric=metric, value=value,
                       wall_seconds=1.0, repeats=1)


def _doc(values, calibration=1000.0, mode="smoke"):
    return {
        "schema": perf.BENCH_SCHEMA,
        "calibration_ops_per_sec": calibration,
        "modes": {mode: {name: {"name": name, "metric": "u/s",
                                "value": v, "wall_seconds": 1.0,
                                "repeats": 1, "detail": {}}
                         for name, v in values.items()}},
    }


def test_run_suite_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown perf mode"):
        perf.run_suite("huge")


def test_bench_sim_sample_shape():
    sample = perf.bench_sim(n_items=100, repeats=1)
    assert sample.name == "sim_events_per_sec"
    assert sample.value > 0
    assert sample.wall_seconds > 0
    assert sample.detail["items"] == 100


def test_calibrate_host_positive():
    assert perf.calibrate_host(ops=50_000) > 0


def test_write_and_load_roundtrip(tmp_path):
    samples = {"w": _sample("w", 123.0)}
    path = perf.write_bench(tmp_path / "b.json", {"smoke": samples})
    doc = perf.load_bench(path)
    assert doc["schema"] == perf.BENCH_SCHEMA
    assert doc["modes"]["smoke"]["w"]["value"] == 123.0
    assert doc["calibration_ops_per_sec"] > 0


def test_write_bench_embeds_baseline_and_speedups(tmp_path):
    baseline = _doc({"w": 100.0}, mode="full")
    path = perf.write_bench(
        tmp_path / "b.json",
        {"full": {"w": _sample("w", 250.0)}}, baseline=baseline)
    doc = json.loads(path.read_text())
    assert doc["speedup_vs_baseline"]["w"] == pytest.approx(2.5)
    assert doc["baseline"]["modes"]["full"]["w"]["value"] == 100.0


def test_load_bench_rejects_wrong_schema(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema": 999, "modes": {}}))
    with pytest.raises(ValueError, match="unsupported BENCH schema"):
        perf.load_bench(p)


def test_check_regression_passes_within_tolerance(monkeypatch):
    committed = _doc({"w": 100.0}, calibration=1000.0)
    monkeypatch.setattr(perf, "calibrate_host", lambda: 1000.0)
    current = {"w": _sample("w", 90.0)}
    assert perf.check_regression(current, committed,
                                 tolerance=0.25) == []


def test_check_regression_fails_beyond_tolerance(monkeypatch):
    committed = _doc({"w": 100.0}, calibration=1000.0)
    monkeypatch.setattr(perf, "calibrate_host", lambda: 1000.0)
    current = {"w": _sample("w", 50.0)}
    failures = perf.check_regression(current, committed,
                                     tolerance=0.25)
    assert len(failures) == 1 and "w:" in failures[0]


def test_check_regression_rescales_for_machine_speed(monkeypatch):
    # Committed on a machine 2x faster: half the committed rate is
    # exactly on par here, so it must pass even at zero tolerance.
    committed = _doc({"w": 100.0}, calibration=2000.0)
    monkeypatch.setattr(perf, "calibrate_host", lambda: 1000.0)
    current = {"w": _sample("w", 50.0)}
    assert perf.check_regression(current, committed,
                                 tolerance=0.0) == []


def test_check_regression_flags_missing_workload(monkeypatch):
    committed = _doc({"w": 100.0, "v": 10.0}, calibration=1000.0)
    monkeypatch.setattr(perf, "calibrate_host", lambda: 1000.0)
    failures = perf.check_regression({"w": _sample("w", 100.0)},
                                     committed)
    assert any("missing" in f for f in failures)


def test_check_regression_validates_inputs():
    committed = _doc({"w": 100.0})
    with pytest.raises(ValueError, match="tolerance"):
        perf.check_regression({}, committed, tolerance=1.5)
    with pytest.raises(ValueError, match="no 'full' mode"):
        perf.check_regression({}, committed, mode="full")


def test_render_perf_table_lists_workloads_and_speedup():
    samples = {"w": _sample("w", 42.0)}
    text = perf.render_perf_table(
        samples, {"smoke": {"w": {"value": 21.0}}}, mode="smoke")
    assert "w" in text and "42.0" in text and "2.00x" in text


def test_committed_bench_file_is_current():
    """The committed BENCH_PR9.json must parse, carry both modes and
    record the fluid day."""
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / perf.BENCH_FILENAME
    doc = perf.load_bench(path)
    assert set(doc["modes"]) == {"full", "smoke"}
    for mode in ("full", "smoke"):
        fluid = doc["modes"][mode]["fluid_day_s"]
        assert fluid["value"] > 0
        assert fluid["detail"]["day_wall_s"] > 0


def test_bench_fluid_sample_shape():
    sample = perf.bench_fluid(requests=20_000, repeats=1)
    assert sample.name == "fluid_day_s"
    assert sample.metric == "day/s"
    assert sample.value > 0
    assert sample.detail["day_wall_s"] > 0
    assert sample.detail["requests"] == 20_000


def test_cli_perf_run_parses():
    from repro.harness.cli import build_parser

    args = build_parser().parse_args(
        ["perf-run", "--smoke", "--check", "BENCH_PR9.json",
         "--tolerance", "0.3"])
    assert args.command == "perf-run"
    assert args.smoke and args.tolerance == 0.3
    assert args.check == "BENCH_PR9.json"
