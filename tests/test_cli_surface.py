"""The CLI surface, pinned: every subcommand's options and defaults.

``SURFACE`` maps each subcommand to ``{option: (kind, default)}``,
where ``kind`` is the argument type's name, ``"flag"`` for a
store-true switch, or the tuple of allowed choices.  A refactor of
the parser may move declarations around, but it must not add, drop,
rename, retype or re-default a single option of any command.
"""

import argparse

import pytest

from repro.harness.cli import build_parser

ADMISSION = ("block", "shed-oldest", "reject-newest")

# Required positionals, and the dests they fill.
POSITIONALS = {"trace-analyze": {"path": "metrics.jsonl"}}

SURFACE = {
    "audit": {
        "--images": ("int", 160),
        "--scale": ("str", "default"),
        "--trace": ("str", None),
    },
    "autoscale-run": {
        "--admission": (ADMISSION, "reject-newest"),
        "--cooldown": ("float", 50.0),
        "--deadline": ("float", None),
        "--floor": ("float", 0.1),
        "--fluid": ("flag", False),
        "--fluid-gate": ("flag", False),
        "--high-water": ("float", 4.0),
        "--host-backends": ("str", "vpu2"),
        "--interval": ("float", 20.0),
        "--lead": ("float", 100.0),
        "--low-water": ("float", 1.0),
        "--max-batch": ("int", None),
        "--max-hosts": ("int", None),
        "--max-wait": ("float", 2.0),
        "--metrics": ("str", None),
        "--min-hosts": ("int", 1),
        "--peak-rate": ("float", None),
        "--period": ("float", 2.0),
        "--policy": (("reactive", "predictive"), "reactive"),
        "--pool": ("int", 4),
        "--queue-depth": ("int", 64),
        "--requests": ("int", 300),
        "--seed": ("int", 0),
        "--slo": ("float", 500.0),
        "--smoke": ("flag", False),
        "--spill-threshold": ("int", None),
        "--trace": ("str", None),
        "--utilization": ("float", 0.7),
        "--warm-pool": ("int", 1),
        "--warmup": ("int", 0),
        "--window": ("int", 8),
    },
    "autoscale-sweep": {
        "--admission": (ADMISSION, "reject-newest"),
        "--cooldown": ("float", 50.0),
        "--deadline": ("float", None),
        "--floor": ("float", 0.1),
        "--fluid": ("flag", False),
        "--high-water": ("float", 4.0),
        "--host-backends": ("str", "vpu2"),
        "--interval": ("float", 20.0),
        "--lead": ("float", 100.0),
        "--low-water": ("float", 1.0),
        "--max-batch": ("int", None),
        "--max-hosts": ("int", None),
        "--max-wait": ("float", 2.0),
        "--min-hosts": ("int", 1),
        "--peak-rate": ("float", None),
        "--period": ("float", 2.0),
        "--pool": ("int", 4),
        "--queue-depth": ("int", 64),
        "--requests": ("int", 300),
        "--seed": ("int", 0),
        "--slo": ("float", 500.0),
        "--smoke": ("flag", False),
        "--spill-threshold": ("int", None),
        "--utilization": ("float", 0.7),
        "--warm-pool": ("int", 1),
        "--warmup": ("int", 0),
        "--window": ("int", 8),
    },
    "chaos-run": {
        "--batch": ("int", 8),
        "--devices": ("int", 8),
        "--images": ("int", 160),
        "--jobs": ("int", 1),
        "--kill-at": ("float", 0.5),
        "--kill-stick": ("int", None),
        "--kind": (("death", "hang", "thermal", "busy"), "death"),
        "--random-plans": ("int", 0),
        "--seed": ("int", 0),
        "--timeout": ("float", None),
        "--trace": ("str", None),
    },
    "cluster-run": {
        "--admission": (ADMISSION, "reject-newest"),
        "--deadline": ("float", None),
        "--host-backends": ("str", "vpu2"),
        "--hosts": ("int", 4),
        "--kill-at": ("float", 0.5),
        "--kill-host": ("int", None),
        "--max-batch": ("int", None),
        "--max-wait": ("float", 2.0),
        "--metrics": ("str", None),
        "--queue-depth": ("int", 64),
        "--rate": ("float", 100.0),
        "--requests": ("int", 300),
        "--seed": ("int", 0),
        "--slo": ("float", 500.0),
        "--spill-threshold": ("int", None),
        "--trace": ("str", None),
        "--warmup": ("int", 0),
        "--window": ("int", 8),
    },
    "cluster-sweep": {
        "--admission": (ADMISSION, "reject-newest"),
        "--deadline": ("float", None),
        "--host-backends": ("str", "vpu2"),
        "--hosts": ("str", None),
        "--jobs": ("int", 1),
        "--max-batch": ("int", None),
        "--max-wait": ("float", 2.0),
        "--queue-depth": ("int", 64),
        "--requests": ("int", 300),
        "--seed": ("int", 0),
        "--slo": ("float", 500.0),
        "--smoke": ("flag", False),
        "--spill-threshold": ("int", None),
        "--steps": ("int", 8),
        "--warmup": ("int", 0),
        "--window": ("int", 8),
    },
    "fig6a": {
        "--images": ("int", 160),
        "--jobs": ("int", 1),
        "--json-dir": ("str", None),
        "--scale": ("str", "default"),
        "--trace": ("str", None),
    },
    "fig6b": {
        "--images": ("int", 160),
        "--jobs": ("int", 1),
        "--json-dir": ("str", None),
        "--scale": ("str", "default"),
        "--trace": ("str", None),
    },
    "fig7a": {
        "--images": ("int", 160),
        "--jobs": ("int", 1),
        "--json-dir": ("str", None),
        "--scale": ("str", "default"),
        "--trace": ("str", None),
    },
    "fig7b": {
        "--images": ("int", 160),
        "--jobs": ("int", 1),
        "--json-dir": ("str", None),
        "--scale": ("str", "default"),
        "--trace": ("str", None),
    },
    "fig8a": {
        "--images": ("int", 160),
        "--jobs": ("int", 1),
        "--json-dir": ("str", None),
        "--scale": ("str", "default"),
        "--trace": ("str", None),
    },
    "fig8b": {
        "--images": ("int", 160),
        "--jobs": ("int", 1),
        "--json-dir": ("str", None),
        "--scale": ("str", "default"),
        "--trace": ("str", None),
    },
    "headline": {
        "--images": ("int", 160),
        "--jobs": ("int", 1),
        "--scale": ("str", "default"),
        "--trace": ("str", None),
    },
    "list": {},
    "profile": {
        "--model": ("str", "googlenet-mini"),
        "--shaves": ("int", 12),
        "--top": ("int", None),
    },
    "profile-run": {
        "--batch": ("int", 8),
        "--images": ("int", 160),
        "--target": (("cpu", "gpu", "vpu1", "vpu2", "vpu4", "vpu8"), "vpu8"),
        "--trace": ("str", None),
    },
    "report": {
        "--images": ("int", 160),
        "--jobs": ("int", 1),
        "--json-dir": ("str", None),
        "--markdown": ("str", None),
        "--scale": ("str", "default"),
        "--trace": ("str", None),
    },
    "serve-run": {
        "--admission": (ADMISSION, "reject-newest"),
        "--backends": ("str", "vpu8"),
        "--burst-rate": ("float", None),
        "--deadline": ("float", None),
        "--kill-at": ("float", 0.5),
        "--kill-stick": ("int", None),
        "--kind": (("death", "hang", "thermal", "busy"), "death"),
        "--max-batch": ("int", None),
        "--max-wait": ("float", 2.0),
        "--metrics": ("str", None),
        "--period": ("float", 10.0),
        "--queue-depth": ("int", 64),
        "--rate": ("float", 50.0),
        "--replay": ("str", None),
        "--requests": ("int", 200),
        "--route": (
            ("round-robin", "least-outstanding", "latency-ewma"),
            "round-robin"),
        "--seed": ("int", 0),
        "--slo": ("float", 500.0),
        "--timeout": ("float", 0.5),
        "--trace": ("str", None),
        "--warmup": ("int", 0),
        "--workload": (("poisson", "bursty", "diurnal", "replay"), "poisson"),
    },
    "serve-sweep": {
        "--admission": (ADMISSION, "reject-newest"),
        "--configs": ("str", "vpu1,vpu2,vpu4,vpu8"),
        "--deadline": ("float", None),
        "--jobs": ("int", 1),
        "--max-batch": ("int", None),
        "--max-wait": ("float", 2.0),
        "--queue-depth": ("int", 64),
        "--requests": ("int", 200),
        "--route": (
            ("round-robin", "least-outstanding", "latency-ewma"),
            "round-robin"),
        "--seed": ("int", 0),
        "--slo": ("float", 500.0),
        "--steps": ("int", 8),
        "--warmup": ("int", 0),
    },
    "split-sweep": {
        "--devices": ("str", "vpu1+cpu"),
        "--objective": (("latency", "throughput", "energy"), "latency"),
        "--smoke": ("flag", False),
    },
    "trace-analyze": {
        "--slo": ("float", 500.0),
        "--waterfalls": ("int", 1),
        "--window": ("float", 50.0),
    },
    "workflow-run": {
        "--admission": (ADMISSION, "reject-newest"),
        "--deadline": ("float", None),
        "--devices": ("int", 4),
        "--max-wait": ("float", 2.0),
        "--metrics": ("str", None),
        "--queue-depth": ("int", 64),
        "--rate": ("float", 40.0),
        "--requests": ("int", 80),
        "--scale": (("micro", "mini"), "micro"),
        "--seed": ("int", 0),
        "--slo": ("float", 800.0),
        "--smoke": ("flag", False),
        "--stage-slo": ("float", None),
        "--trace": ("str", None),
        "--warmup": ("int", 0),
        "--workflow": (
            ("cascade", "ensemble", "escalate", "monolithic"),
            "cascade"),
    },
    "workflow-sweep": {
        "--admission": (ADMISSION, "reject-newest"),
        "--deadline": ("float", None),
        "--devices": ("int", 4),
        "--max-wait": ("float", 2.0),
        "--queue-depth": ("int", 64),
        "--rates": ("str", None),
        "--requests": ("int", 80),
        "--scale": (("micro", "mini"), "micro"),
        "--seed": ("int", 0),
        "--slo": ("float", 800.0),
        "--smoke": ("flag", False),
        "--warmup": ("int", 0),
    },
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _kind(action: argparse.Action):
    if isinstance(action, argparse._StoreTrueAction):
        return "flag"
    if action.choices:
        return tuple(action.choices)
    return action.type.__name__ if action.type else "str"


def test_command_set():
    assert set(_subparsers()) == set(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_options_and_kinds(command):
    parser = _subparsers()[command]
    kinds = {option: _kind(action) for action in parser._actions
             for option in action.option_strings
             if option not in ("-h", "--help")}
    assert kinds == {option: kind
                     for option, (kind, _) in SURFACE[command].items()}


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_parsed_defaults(command):
    positionals = POSITIONALS.get(command, {})
    parsed = vars(build_parser().parse_args([command,
                                             *positionals.values()]))
    expected = {"command": command, **positionals}
    for option, (_, default) in SURFACE[command].items():
        expected[option[2:].replace("-", "_")] = default
    assert parsed == expected
    # Same value and same type: 500 and 500.0 are different defaults.
    assert ({k: type(v) for k, v in parsed.items()}
            == {k: type(v) for k, v in expected.items()})
