"""The CLI smokes, compared byte for byte with committed goldens.

Each case runs ``python -m repro`` in a fresh interpreter, as a user
would, and compares its stdout with ``tests/golden/cli/<name>.txt``.
The simulation is deterministic, so any difference is a change in
behaviour.  With observability on, the report must come out
unchanged: the obs extras are only appended after it.

Regenerate a golden only for an intended change of output::

    PYTHONPATH=src python -m repro <args> > tests/golden/cli/<name>.txt
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "cli"
SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "chaos_run_kill_stick3": ["chaos-run", "--devices", "8", "--images",
                              "80", "--batch", "80", "--kill-stick", "3"],
    "split_sweep_smoke": ["split-sweep", "--smoke"],
    "split_sweep_smoke_cpu_vpu2": ["split-sweep", "--smoke", "--devices",
                                   "cpu+vpu2", "--objective",
                                   "throughput"],
    "serve_run_vpu2_cpu": ["serve-run", "--backends", "vpu2+cpu",
                           "--requests", "60", "--rate", "25", "--seed",
                           "7"],
    "cluster_sweep_smoke": ["cluster-sweep", "--smoke"],
    "autoscale_run_smoke": ["autoscale-run", "--smoke"],
    "workflow_run_smoke": ["workflow-run", "--smoke"],
}

# Observability flags per case; the files land in the test's tmp dir.
OBS = {
    "serve_run_vpu2_cpu": ["--metrics", "serve.jsonl"],
    "autoscale_run_smoke": ["--metrics", "autoscale.jsonl"],
    "workflow_run_smoke": ["--trace", "wf.json", "--metrics", "wf.jsonl"],
}


def _repro(args: list[str], cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "repro", *args],
                          cwd=cwd, env=env, capture_output=True,
                          text=True, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, tmp_path):
    golden = (GOLDEN / f"{name}.txt").read_text()
    assert _repro(CASES[name], tmp_path) == golden


@pytest.mark.parametrize("name", sorted(OBS))
def test_observability_only_appends(name, tmp_path):
    golden = (GOLDEN / f"{name}.txt").read_text()
    out = _repro(CASES[name] + OBS[name], tmp_path)
    assert out.startswith(golden)
    assert len(out) > len(golden)
    for path in OBS[name][1::2]:
        text = (tmp_path / path).read_text()
        assert text
        if path.endswith(".json"):
            assert json.loads(text)["traceEvents"]
