"""The paired perf gate's decision rule, on synthetic run results."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "tools" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(items_per_s=100.0, setup_s=1.0, peak_rss_mb=50.0, failed=0):
    """One ``perfbench/run.py`` result line."""
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"},
                        "setup_s": {"value": setup_s, "unit": "s"},
                        "peak_rss_mb": {"value": peak_rss_mb,
                                        "unit": "MB"}}}


def gate(heads, bases=None):
    bases = bases or [run() for _ in heads]
    return perf_gate.verdict(BENCHMARK, {"w": list(zip(bases, heads))})


def test_identical_runs_pass():
    report, failures = gate([run() for _ in range(5)])
    assert failures == []
    row = report["w"]["metrics"]["items_per_s"]
    assert row["losses"] == 0 and row["pairs"] == 5
    assert row["base"]["median"] == row["head"]["median"] == 100.0


def test_majority_of_pairs_worse_beyond_bound_fails():
    heads = [run(items_per_s=60.0)] * 3 + [run()] * 2
    report, failures = gate(heads)
    assert failures == ["w: items_per_s worse by more than 25% in 3/5 "
                        "pairs"]
    assert report["w"]["metrics"]["items_per_s"]["losses"] == 3


def test_minority_of_pairs_worse_passes():
    heads = [run(items_per_s=60.0)] * 2 + [run()] * 3
    report, failures = gate(heads)
    assert failures == []
    assert report["w"]["metrics"]["items_per_s"]["losses"] == 2


def test_losses_are_judged_against_the_pair_partner():
    # A slow host halves both sides of pairs 1-3: head never loses.
    bases = [run(items_per_s=50.0)] * 3 + [run()] * 2
    heads = [run(items_per_s=48.0)] * 3 + [run(items_per_s=96.0)] * 2
    _, failures = gate(heads, bases)
    assert failures == []


def test_within_bound_is_not_a_loss():
    _, failures = gate([run(items_per_s=76.0)] * 5)
    assert failures == []


@pytest.mark.parametrize("metric", ["setup_s", "peak_rss_mb"])
def test_lower_is_better_metrics_take_their_direction(metric):
    base = run()["metrics"][metric]["value"]
    bound = next(m["bound"] for m in BENCHMARK["end_to_end"]
                 if m["name"] == metric)
    _, failures = gate([run(**{metric: base * 2})] * 5)
    assert failures == [f"w: {metric} worse by more than {bound:.0%} "
                        "in 5/5 pairs"]
    _, failures = gate([run(**{metric: base / 2})] * 5)
    assert failures == []


def test_higher_items_per_s_is_not_a_loss():
    _, failures = gate([run(items_per_s=300.0)] * 5)
    assert failures == []


def test_a_head_run_failing_its_checks_fails():
    heads = [run()] * 4 + [run(failed=10)]
    _, failures = gate(heads)
    assert "w: 1 head run(s) failed a correctness check" in failures
    assert any("failed share" in f for f in failures)


def test_more_failures_than_base_fails_and_equal_ones_are_judged_on_checks():
    bases = [run(failed=2)] * 5
    _, failures = gate([run(failed=4)] * 5, bases)
    assert "w: failed share 0.400 on head > 0.200 on base" in failures
    _, failures = gate([run(failed=2)] * 5, bases)
    assert failures == ["w: 5 head run(s) failed a correctness check"]


def test_a_crashed_head_run_fails():
    _, failures = gate([run()] * 4 + [perf_gate.CRASHED])
    assert "w: 1 head run(s) failed a correctness check" in failures
    assert "w: failed share 0.200 on head > 0.000 on base" in failures


def _tree(root: Path, run_py: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (root / "perfbench" / "run.py").write_text(run_py)
    return root


def test_identical_benchmarks_are_comparable(tmp_path):
    base = _tree(tmp_path / "base", "print(1)\n")
    head = _tree(tmp_path / "head", "print(1)\n")
    (head / "perfbench" / "__pycache__").mkdir()
    (head / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"x")
    assert perf_gate.not_comparable(base, head) is None


def test_differing_perfbench_trees_are_not_comparable(tmp_path):
    base = _tree(tmp_path / "base", "print(1)\n")
    head = _tree(tmp_path / "head", "print(2)\n")
    (head / "perfbench" / "extra.py").write_text("")
    reason = perf_gate.not_comparable(base, head)
    assert reason == ("benchmark differs between the trees: "
                      "perfbench/extra.py, perfbench/run.py")


def test_differing_benchmark_json_is_not_comparable(tmp_path):
    base = _tree(tmp_path / "base", "")
    head = _tree(tmp_path / "head", "")
    (head / "BENCHMARK.json").write_text("{}")
    assert perf_gate.not_comparable(base, head) == (
        "benchmark differs between the trees: BENCHMARK.json")


def test_not_comparable_trees_skip_without_running(tmp_path, capsys):
    base = _tree(tmp_path / "base", "raise SystemExit(1)\n")
    head = _tree(tmp_path / "head", "raise SystemExit(2)\n")
    out = tmp_path / "gate.json"
    assert perf_gate.main([str(base), str(head), str(out)]) == 0
    assert "not comparable" in capsys.readouterr().out
    assert json.loads(out.read_text())["verdict"].startswith(
        "not comparable")


def test_a_tree_without_git_is_named_by_a_digest_of_its_sources(tmp_path):
    tree = _tree(tmp_path / "tree", "print(1)\n")
    (tree / "src").mkdir()
    (tree / "src" / "mod.py").write_text("x = 1\n")
    first = perf_gate._commit(tree)
    assert first is not None and first.startswith("tree-")
    assert perf_gate._commit(tree) == first
    (tree / "src" / "mod.py").write_text("x = 2\n")
    assert perf_gate._commit(tree) != first


def test_render_has_one_row_per_workload_and_metric():
    report, _ = gate([run()] * 3)
    lines = perf_gate.render(report).splitlines()
    assert len(lines) == 1 + len(BENCHMARK["end_to_end"])
    assert lines[1].split()[:2] == ["w", "items_per_s"]
    assert lines[1].endswith("0/3")
