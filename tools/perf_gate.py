"""Paired performance gate: one tree against another on the benchmark.

Run from anywhere::

    python3 tools/perf_gate.py BASE HEAD OUT --pairs 5

``BASE`` and ``HEAD`` are two checkouts of this repository.  For every
workload in ``BENCHMARK.json`` the gate runs ``--pairs`` pairs of
``perfbench/run.py --workload W --seed 1 --trace 0`` measurements,
one on each tree, for the ``run_seconds`` the benchmark declares.
The tree that runs first alternates from pair to pair, so a host
whose speed drifts slows both sides of a pair alike.

HEAD fails when, for any end-to-end metric, it is worse than its pair
partner by more than the metric's ``bound`` in a majority of pairs;
or when one of its runs fails a correctness check; or when a larger
share of its operations fails than of BASE's.  The gate prints one
row per workload and metric and writes medians, quartiles and every
pair's values to ``OUT`` as JSON.  Exit status: 0 pass, 1 fail.

Two trees whose ``BENCHMARK.json`` or ``perfbench/`` differ measure
different things; the gate then reports them as not comparable and
exits 0 without running anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: The result of a run that printed no JSON line.
CRASHED = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def _tree_files(tree: Path, *dirs: str) -> dict[str, bytes]:
    """``BENCHMARK.json`` and every source file under *dirs*, by path
    relative to the tree."""
    files = [tree / "BENCHMARK.json"]
    files += (p for d in dirs for p in (tree / d).rglob("*")
              if p.is_file() and "__pycache__" not in p.parts)
    return {str(p.relative_to(tree)): p.read_bytes()
            for p in files if p.exists()}


def not_comparable(base: Path, head: Path) -> str | None:
    """Why the two trees' benchmarks differ, or None when they match."""
    a, b = _tree_files(base, "perfbench"), _tree_files(head, "perfbench")
    differ = sorted(name for name in a.keys() | b.keys()
                    if a.get(name) != b.get(name))
    if not differ:
        return None
    return "benchmark differs between the trees: " + ", ".join(differ)


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One measured run on ``tree``; its last line of JSON output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "0", "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return CRASHED
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return CRASHED


def _worse(base: float, head: float, better: str, bound: float) -> bool:
    if better == "higher":
        return head < base * (1.0 - bound)
    return head > base * (1.0 + bound)


def _summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def _failed_share(runs: list[dict]) -> float:
    shares = [r["failed"] / r["attempted"] if r["attempted"]
              else float(not r["correct"]) for r in runs]
    return sum(shares) / len(shares)


def verdict(benchmark: dict, pairs: dict[str, list[tuple[dict, dict]]]
            ) -> tuple[dict, list[str]]:
    """Compare HEAD with BASE over ``pairs[workload] = [(base run,
    head run), ...]``.

    Returns ``(report, failures)``: the report maps each workload to
    its metrics' BASE and HEAD summaries and losses; HEAD passes when
    ``failures`` is empty.
    """
    report, failures = {}, []
    for workload, runs in pairs.items():
        bases = [b for b, _ in runs]
        heads = [h for _, h in runs]
        bad = sum(not h["correct"] for h in heads)
        if bad:
            failures.append(f"{workload}: {bad} head run(s) failed "
                            "a correctness check")
        share = {"base": _failed_share(bases), "head": _failed_share(heads)}
        if share["head"] > share["base"]:
            failures.append(f"{workload}: failed share {share['head']:.3f}"
                            f" on head > {share['base']:.3f} on base")
        rows = {}
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            both = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                    for b, h in runs
                    if name in b["metrics"] and name in h["metrics"]]
            if not both:
                continue
            losses = sum(_worse(b, h, spec["better"], spec["bound"])
                         for b, h in both)
            rows[name] = {"base": _summary([b for b, _ in both]),
                          "head": _summary([h for _, h in both]),
                          "losses": losses, "pairs": len(both),
                          "better": spec["better"], "bound": spec["bound"]}
            if losses > len(both) / 2:
                failures.append(
                    f"{workload}: {name} worse by more than "
                    f"{spec['bound']:.0%} in {losses}/{len(both)} pairs")
        report[workload] = {"metrics": rows, "failed_share": share}
    return report, failures


def render(report: dict) -> str:
    """One row per workload and metric: median [q1, q3] per side."""
    def side(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    lines = [f"{'workload':<18} {'metric':<12} {'base median [q1, q3]':<30}"
             f" {'head median [q1, q3]':<30} losses"]
    for workload, entry in report.items():
        for name, row in entry["metrics"].items():
            lines.append(f"{workload:<18} {name:<12} {side(row['base']):<30}"
                         f" {side(row['head']):<30} "
                         f"{row['losses']}/{row['pairs']}")
    return "\n".join(lines)


def _brief(run: dict) -> str:
    return " ".join(f"{name}={m['value']:.4g}"
                    for name, m in run["metrics"].items()) or "crashed"


def _commit(tree: Path) -> str:
    """The tree's git revision; for a tree without git history (an
    export of uncommitted work), ``tree-`` and a digest of its sources
    so the report still names what was measured."""
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always",
                           "--dirty"], capture_output=True, text=True)
    if proc.stdout.strip():
        return proc.stdout.strip()
    digest = hashlib.sha256()
    for name, data in sorted(
            _tree_files(tree, "src", "perfbench", "tools").items()):
        digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return "tree-" + digest.hexdigest()[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("out", type=Path, help="JSON report path")
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base, head = args.base.resolve(), args.head.resolve()
    doc = {"base": _commit(base), "head": _commit(head),
           "pairs": args.pairs}

    reason = not_comparable(base, head)
    if reason:
        print(f"perf gate skipped, trees not comparable: {reason}")
        doc["verdict"] = "not comparable: " + reason
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        return 0

    benchmark = json.loads((head / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    for spec in benchmark["workloads"]:
        workload = spec["name"]
        pairs[workload] = []
        for i in range(args.pairs):
            order = [("base", base), ("head", head)]
            if i % 2:
                order.reverse()
            got = {side: run_once(tree, workload, seconds)
                   for side, tree in order}
            pairs[workload].append((got["base"], got["head"]))
            print(f"{workload} pair {i + 1}/{args.pairs} ({order[0][0]} "
                  f"first): base {_brief(got['base'])}  head "
                  f"{_brief(got['head'])}", flush=True)

    report, failures = verdict(benchmark, pairs)
    print(render(report))
    doc.update({"run_seconds": seconds, "workloads": report,
                "verdict": "fail" if failures else "pass",
                "failures": failures})
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for line in failures:
        print(f"PERF REGRESSION: {line}")
    print(f"perf gate {doc['verdict']} ({args.pairs} pairs per workload)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
