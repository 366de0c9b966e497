"""Tests for the experiment CLI."""

import json

import pytest

from repro.harness.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig6a", "fig7b", "headline", "report", "profile"):
        assert name in out


def test_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figZZ"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_fig6b_command_renders(capsys):
    assert main(["fig6b", "--images", "32"]) == 0
    out = capsys.readouterr().out
    assert "fig6b" in out
    assert "paper reference" in out
    assert "=vpu" in out  # line chart legend


def test_fig6a_command_renders_bars(capsys):
    assert main(["fig6a", "--images", "32"]) == 0
    out = capsys.readouterr().out
    assert "Set-1" in out
    assert "#" in out  # bar chart marks


def test_headline_without_error_rows(capsys):
    assert main(["headline", "--images", "32", "--scale", "none"]) == 0
    out = capsys.readouterr().out
    assert "vpu_single_ms" in out
    assert "cpu_top1_error" not in out


def test_fig7b_smoke_scale(capsys):
    assert main(["fig7b", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "fig7b" in out


def test_profile_command(capsys):
    assert main(["profile", "--model", "googlenet-micro",
                 "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out
    assert "Convolution" in out


def test_profile_shave_option(capsys):
    assert main(["profile", "--model", "googlenet-micro",
                 "--shaves", "4", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out


def test_json_dir_option(tmp_path, capsys):
    assert main(["fig6b", "--images", "16",
                 "--json-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fig6b.json").exists()
    data = json.loads((tmp_path / "fig6b.json").read_text())
    assert data["figure_id"] == "fig6b"


def test_report_markdown_option(tmp_path, capsys):
    md_path = tmp_path / "report.md"
    assert main(["report", "--images", "16", "--scale", "none",
                 "--markdown", str(md_path)]) == 0
    text = md_path.read_text()
    assert text.startswith("# Reproduction report")
    assert "## fig6a" in text and "## fig8b" in text
    assert "| metric | paper | measured | ratio |" in text


def test_trace_option_writes_chrome_trace(tmp_path, capsys):
    import json

    trace = tmp_path / "fig6b.trace.json"
    assert main(["fig6b", "--images", "16",
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "utilisation report" in out
    assert "wrote trace" in out and "perfetto" in out
    doc = json.loads(trace.read_text())
    events = doc["traceEvents"]
    tracks = {e["args"]["name"] for e in events
              if e.get("ph") == "M" and e["name"] == "thread_name"}
    assert any(t.startswith("ncs") for t in tracks)
    assert "inference" in {e["name"] for e in events
                           if e.get("ph") == "X"}


def test_profile_run_command(capsys):
    assert main(["profile-run", "--target", "vpu2", "--images", "16",
                 "--batch", "4"]) == 0
    out = capsys.readouterr().out
    assert "img/s" in out
    assert "utilisation report" in out
    assert "ncs0" in out and "ncs1" in out


def test_profile_run_trace_file(tmp_path, capsys):
    import json

    trace = tmp_path / "run.json"
    assert main(["profile-run", "--target", "cpu", "--images", "8",
                 "--batch", "4", "--trace", str(trace)]) == 0
    assert json.loads(trace.read_text())["traceEvents"]


def test_audit_command(capsys):
    assert main(["audit", "--images", "48", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "claims verified" in out
    assert "vpu-single-latency" in out
    assert " NO" not in out


def test_list_mentions_serve_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "serve-run" in out and "serve-sweep" in out


def test_serve_run_command_renders_report(capsys):
    assert main(["serve-run", "--backends", "vpu4", "--requests", "24",
                 "--rate", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "serve report" in out
    assert "workload       : poisson @ 20 req/s (seed 3)" in out
    assert "completed      : 24 (100.0%)" in out
    assert "SLO p99 <=" in out
    assert "goodput" in out


def test_serve_run_is_deterministic(capsys):
    args = ["serve-run", "--backends", "vpu2", "--requests", "16",
            "--rate", "10", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_serve_run_bursty_workload(capsys):
    assert main(["serve-run", "--backends", "vpu4", "--requests", "24",
                 "--workload", "bursty", "--rate", "8"]) == 0
    out = capsys.readouterr().out
    assert "bursty" in out


def test_serve_run_kill_stick_degrades(capsys):
    assert main(["serve-run", "--backends", "vpu2", "--requests", "40",
                 "--rate", "15", "--kill-stick", "0",
                 "--kill-at", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "baseline:" in out
    assert "chaos: kill stick 0" in out
    assert "device failures: ncs0" in out


def test_serve_run_validation(capsys):
    assert main(["serve-run", "--backends", "tpu9"]) == 2
    assert "unknown token" in capsys.readouterr().out
    assert main(["serve-run", "--kill-stick", "0",
                 "--kill-at", "1.5"]) == 2
    assert main(["serve-run", "--workload", "replay"]) == 2


def test_serve_run_replay_trace(tmp_path, capsys):
    trace = tmp_path / "arrivals.txt"
    trace.write_text("".join(f"{0.2 * i:.3f}\n" for i in range(12)))
    assert main(["serve-run", "--backends", "vpu2",
                 "--workload", "replay", "--replay", str(trace),
                 "--requests", "12"]) == 0
    out = capsys.readouterr().out
    assert "trace replay (12 arrivals)" in out


def test_serve_sweep_scales_with_sticks(capsys):
    assert main(["serve-sweep", "--configs", "vpu1,vpu2",
                 "--steps", "2", "--requests", "24"]) == 0
    out = capsys.readouterr().out
    assert "load sweep" in out
    assert "vpu1" in out and "vpu2" in out
    assert "1.00x" in out


def test_list_mentions_cluster_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "cluster-run" in out and "cluster-sweep" in out


def test_cluster_run_command_renders_report(capsys):
    args = ["cluster-run", "--hosts", "2", "--requests", "24",
            "--rate", "40", "--slo", "5000", "--seed", "2"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "cluster serve report" in out
    assert "hosts           : 2 (2 live at end)" in out
    assert "poisson @ 40 req/s (seed 2)" in out
    assert "offered         : 24" in out
    # Byte-identical on a re-run: the determinism contract.
    assert main(args) == 0
    assert capsys.readouterr().out == out


def test_cluster_run_kill_host_resurvives(capsys):
    assert main(["cluster-run", "--hosts", "2", "--requests", "40",
                 "--rate", "400", "--slo", "20000",
                 "--kill-host", "0", "--kill-at", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "baseline:" in out
    assert "chaos: kill host 0" in out
    assert "died @" in out and "survived" in out
    assert "completed       : 40" in out  # nothing lost


def test_cluster_run_validation(capsys):
    assert main(["cluster-run", "--host-backends", "tpu9"]) == 2
    assert "unknown token" in capsys.readouterr().out
    assert main(["cluster-run", "--hosts", "2",
                 "--kill-host", "5"]) == 2
    assert main(["cluster-run", "--kill-host", "0",
                 "--kill-at", "1.5"]) == 2
    assert main(["cluster-run", "--hosts", "0"]) == 2


def test_cluster_sweep_smoke(capsys):
    assert main(["cluster-sweep", "--smoke", "--hosts", "1,2",
                 "--requests", "24", "--steps", "1"]) == 0
    out = capsys.readouterr().out
    assert "load sweep" in out
    assert "hosts=1" in out and "hosts=2" in out


def test_list_mentions_autoscale_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "autoscale-run" in out and "autoscale-sweep" in out


def test_autoscale_run_smoke_is_deterministic(capsys):
    args = ["autoscale-run", "--smoke"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "policy: reactive" in out
    assert "scale timeline" in out
    assert "host-seconds" in out
    assert "abandoned       : 0 (0 at the frontend)" in out
    # Byte-identical on a re-run: the determinism contract.
    assert main(args) == 0
    assert capsys.readouterr().out == out


def test_autoscale_run_predictive_smoke(capsys):
    assert main(["autoscale-run", "--smoke",
                 "--policy", "predictive"]) == 0
    out = capsys.readouterr().out
    assert "policy: predictive" in out
    assert "scale timeline" in out


def test_autoscale_sweep_smoke_renders_frontier(capsys):
    assert main(["autoscale-sweep", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "cost vs SLO frontier" in out
    assert "fixed-1" in out
    assert "reactive" in out and "predictive" in out
    assert "closed-loop capacity" in out


def test_list_mentions_workflow_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "workflow-run" in out and "workflow-sweep" in out


def test_workflow_run_smoke_is_deterministic(capsys):
    args = ["workflow-run", "--smoke"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "workflow cascade-micro" in out
    assert "fan-out region: crop .. aggregate" in out
    assert "== workflow report: cascade-micro ==" in out
    assert "spawned" in out and "abandoned" in out
    # Byte-identical on a re-run: the determinism contract.
    assert main(args) == 0
    assert capsys.readouterr().out == out


def test_workflow_run_escalate_smoke(capsys):
    assert main(["workflow-run", "--workflow", "escalate",
                 "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "classify-fp16" in out and "classify-fp32" in out
    assert "gate [branch]" in out


def test_workflow_run_trace_appends_only(tmp_path, capsys):
    # Observability must not change the report: the obs run's output
    # starts with the obs-off run's bytes, then appends obs extras.
    args = ["workflow-run", "--smoke", "--workflow", "ensemble"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    trace = tmp_path / "wf.json"
    assert main(args + ["--trace", str(trace)]) == 0
    traced = capsys.readouterr().out
    assert traced.startswith(plain.rstrip("\n"))
    assert "utilisation" in traced or "util" in traced
    assert trace.exists()


def test_workflow_sweep_smoke_renders_table(capsys):
    assert main(["workflow-sweep", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "cascade vs monolithic" in out
    assert "monolithic" in out
    assert "worst-case workflow loss" in out


def test_workflow_run_rejects_bad_scale(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["workflow-run", "--scale", "huge"])


@pytest.mark.parametrize("flag", ["--trace", "--metrics"])
def test_missing_output_directory_names_its_flag(tmp_path, flag):
    from repro.errors import ObservabilityError

    path = tmp_path / "missing" / "out.json"
    with pytest.raises(ObservabilityError, match=f"^{flag}: directory"):
        main(["serve-run", "--requests", "5", flag, str(path)])


def test_every_command_renders_its_help(capsys):
    from repro.harness.cli import COMMANDS

    for name in COMMANDS:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([name, "--help"])
        assert exc.value.code == 0
        assert f"usage: repro {name}" in capsys.readouterr().out


def test_chaos_run_checks_kill_stick_before_the_baseline(capsys):
    assert main(["chaos-run", "--devices", "2", "--images", "8",
                 "--batch", "8", "--kill-stick", "5"]) == 2
    out = capsys.readouterr().out
    assert "--kill-stick must be in [0, 1], got 5" in out
    assert "baseline" not in out


def test_chaos_run_rejects_kill_stick_with_random_plans(capsys):
    assert main(["chaos-run", "--devices", "2", "--images", "8",
                 "--batch", "8", "--kill-stick", "0",
                 "--random-plans", "2"]) == 2
    out = capsys.readouterr().out
    assert "--kill-stick and --random-plans are exclusive" in out
    assert "baseline" not in out


@pytest.mark.parametrize("argv, message", [
    (["serve-run", "--backends", "vpu2,vpu9"],
     "--backends vpu9: the testbed drives 1-8 sticks, got 9"),
    (["serve-run", "--backends", "cpu+vpu9"],
     "split spec 'cpu+vpu9': the testbed drives 1-8 sticks, got 9"),
    (["cluster-run", "--host-backends", "vpu9"],
     "--host-backends vpu9: the testbed drives 1-8 sticks, got 9"),
    (["chaos-run", "--devices", "0"],
     "--devices: the testbed drives 1-8 sticks, got 0"),
    (["workflow-run", "--devices", "9"],
     "--devices: the testbed drives 1-8 sticks, got 9"),
], ids=["serve-run", "serve-run-split", "cluster-run", "chaos-run",
        "workflow-run"])
def test_stick_count_out_of_range_is_a_usage_error(capsys, argv,
                                                   message):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert message in out
    assert "baseline" not in out


@pytest.mark.parametrize("argv", [
    ["headline", "--json-dir", "out"],
    ["audit", "--json-dir", "out"],
    ["audit", "--jobs", "2"],
], ids=["headline-json-dir", "audit-json-dir", "audit-jobs"])
def test_headline_and_audit_reject_flags_they_would_ignore(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--images", "8", "--scale", "none"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("backends, stick, message", [
    ("vpu2", "7", "--kill-stick must be in [0, 1], got 7"),
    ("vpu4,vpu2", "2", "--kill-stick must be in [0, 1], got 2"),
    ("vpu2", "-1", "--kill-stick must be in [0, 1], got -1"),
    ("cpu", "0", "--kill-stick needs a plain vpuN backend"),
    ("vpu2+cpu", "0", "--kill-stick needs a plain vpuN backend"),
])
def test_serve_run_checks_kill_stick_before_the_baseline(
        capsys, backends, stick, message):
    assert main(["serve-run", "--backends", backends, "--requests", "8",
                 "--kill-stick", stick]) == 2
    out = capsys.readouterr().out
    assert message in out
    assert "baseline" not in out


@pytest.mark.parametrize("fluid", ["--fluid", "--fluid-gate"])
@pytest.mark.parametrize("flag", ["--trace", "--metrics"])
def test_autoscale_fluid_rejects_observability(tmp_path, capsys, fluid,
                                               flag):
    path = tmp_path / "out.json"
    assert main(["autoscale-run", "--smoke", fluid, flag,
                 str(path)]) == 2
    assert "the fluid model records no spans" in capsys.readouterr().out
    assert not path.exists()
