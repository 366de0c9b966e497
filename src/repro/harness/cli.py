"""Command-line interface: regenerate any paper artefact from a shell.

::

    python -m repro list                     # every command, one line
    python -m repro fig6a --images 160 --trace /tmp/fig6a.json
    python -m repro report --scale smoke     # everything

``COMMANDS`` at the end of this module is the one table of
subcommands.  Each entry holds the line ``list`` prints, the flag
groups its parser is built from, the handler ``main`` dispatches to,
and the defaults the command overrides.  Every flag is declared once,
in one flag group.

``--trace out.json`` on any experiment records a span timeline into
a Chrome/Perfetto ``trace_event`` file (open at
https://ui.perfetto.dev) and prints the per-device utilisation
report; ``profile-run`` does one instrumented run and reports even
without ``--trace``.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Callable, NamedTuple, Sequence

from repro.harness import figures
from repro.harness.ascii_plot import bar_chart, line_chart
from repro.harness.tables import render_comparison, render_figure_table
from repro.serve.queue import POLICIES, REJECT_NEWEST

_FIGURES: dict[str, tuple[str, Callable]] = {
    "fig6a": ("throughput per subset (batch 8)",
              lambda args, obs=None: figures.fig6a_throughput_per_subset(
                  images_per_subset=args.images, obs=obs,
                  jobs=args.jobs)),
    "fig6b": ("normalized scaling vs batch size",
              lambda args, obs=None: figures.fig6b_normalized_scaling(
                  images=args.images, obs=obs, jobs=args.jobs)),
    "fig7a": ("top-1 error per subset (FP32 vs FP16)",
              lambda args, obs=None: figures.fig7a_top1_error(
                  scale=args.scale, obs=obs, jobs=args.jobs)),
    "fig7b": ("confidence difference per subset",
              lambda args, obs=None: figures.fig7b_confidence_difference(
                  scale=args.scale, obs=obs, jobs=args.jobs)),
    "fig8a": ("throughput per Watt",
              lambda args, obs=None: figures.fig8a_throughput_per_watt(
                  images=args.images, obs=obs, jobs=args.jobs)),
    "fig8b": ("projected throughput to 16 VPUs",
              lambda args, obs=None: figures.fig8b_projected_throughput(
                  images=args.images, obs=obs, jobs=args.jobs)),
}

_BAR_FIGURES = {"fig6a", "fig7a"}


class _Usage(Exception):
    """A bad option value: ``main`` prints the message and exits 2."""


def _obs_from_args(args: argparse.Namespace):
    """An ObsSession when --trace or --metrics was given, else None."""
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    if trace is None and metrics is None:
        return None
    if trace is not None:
        _check_trace_path(trace, "--trace")
    if metrics is not None:
        _check_trace_path(metrics, "--metrics")
    from repro.obs import ObsSession

    return ObsSession()


def _check_trace_path(path: str, flag: str) -> None:
    """Fail before the run, not after: the ``flag`` file is written
    last, and a bad path would discard minutes of simulation."""
    from pathlib import Path

    from repro.errors import ObservabilityError

    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise ObservabilityError(
            f"{flag}: directory {parent} does not exist")


def _finish_trace(args: argparse.Namespace, obs,
                  wall_seconds: float | None = None) -> None:
    """Print the utilisation report and write the trace file."""
    if obs is None:
        return
    from repro.harness.export import save_trace_json
    from repro.obs import utilisation_report

    print(utilisation_report(obs, wall_seconds))
    if getattr(args, "trace", None) is not None:
        path = save_trace_json(obs, args.trace)
        print(f"wrote trace {path} "
              "(open in https://ui.perfetto.dev)")
    if getattr(args, "metrics", None) is not None:
        from repro.obs import write_metrics_jsonl

        path = write_metrics_jsonl(obs, args.metrics)
        print(f"wrote metrics {path} (analyze with "
              f"`python -m repro trace-analyze {path}`)")


def _alerts(obs, result) -> dict:
    """The ``alerts``/``policy`` keywords of a serving report: the
    burn-rate policy over the run and what it fires; none without
    observability."""
    if obs is None:
        return {}
    from repro.obs import default_policy, serve_alerts

    return {"alerts": serve_alerts(result, session=obs),
            "policy": default_policy(result.wall_seconds)}


def _finish_serving(args: argparse.Namespace, obs) -> None:
    """The observability tail of a serving report: a blank line, the
    first completed sampled request's waterfall, then the trace."""
    if obs is None:
        return
    from repro.obs import render_waterfall

    print()
    done = [t for t in obs.reqtrace.traces() if t.completed]
    if done:
        print(render_waterfall(obs.reqtrace, done[0].trace_id))
        print()
    _finish_trace(args, obs)


def _check_kill_at(args: argparse.Namespace) -> None:
    if not 0.0 <= args.kill_at <= 1.0:
        raise _Usage(f"--kill-at must be in [0, 1], got {args.kill_at}")


def _check_kill_stick(stick: int | None, rigs: list[int]) -> None:
    """``--kill-stick K`` must name a stick of every plain VPU rig
    (given by stick count); checked before any baseline runs."""
    if stick is None:
        return
    if not rigs:
        raise _Usage("--kill-stick needs a plain vpuN backend")
    if not 0 <= stick < min(rigs):
        raise _Usage(f"--kill-stick must be in [0, {min(rigs) - 1}], "
                     f"got {stick}")


def _check_sticks(sticks: int, what: str) -> int:
    """A stick count of the paper's testbed (1-8), or a usage error."""
    if not 1 <= sticks <= 8:
        raise _Usage(f"{what}: the testbed drives 1-8 sticks, "
                     f"got {sticks}")
    return sticks


def _tokens(spec: str, flag: str, what: str) -> list[str]:
    """The non-empty tokens of a comma list; at least one."""
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise _Usage(f"{flag}: no {what} given")
    return tokens


def _functional_scale(args: argparse.Namespace) -> str | None:
    """The functional scale, or None when ``--scale none`` skips the
    functional (top-1 error) experiments."""
    return None if args.scale in (None, "none") else args.scale


def _render(name: str, result) -> None:
    print(render_figure_table(result))
    print()
    if name in _BAR_FIGURES:
        print(bar_chart(result))
    else:
        print(line_chart(result))
    print()


def _save_json(args: argparse.Namespace, name: str, result):
    """Save ``result`` as ``<--json-dir>/<name>.json``; the path, or
    None without ``--json-dir``."""
    if not args.json_dir:
        return None
    from pathlib import Path

    from repro.harness.export import save_figure_json

    out = Path(args.json_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_figure_json(result, out / f"{name}.json")
    return out / f"{name}.json"


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in COMMANDS)
    print("available experiments:")
    for name, command in COMMANDS.items():
        if name != "list":
            print(f"  {name:<{width}}  {command.description}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    obs = _obs_from_args(args)
    result = _FIGURES[args.command][1](args, obs)
    _render(args.command, result)
    _finish_trace(args, obs)
    path = _save_json(args, args.command, result)
    if path is not None:
        print(f"saved {path}")
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    obs = _obs_from_args(args)
    rows = figures.headline_table(images=args.images,
                                  error_scale=_functional_scale(args),
                                  obs=obs, jobs=args.jobs)
    print(render_comparison(rows, title="headline: paper vs measured"))
    _finish_trace(args, obs)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    results = {}
    obs = _obs_from_args(args)
    scale = _functional_scale(args)
    names = [n for n in _FIGURES
             if not (scale is None and n in ("fig7a", "fig7b"))]
    for name in names:
        print("=" * 72)
        results[name] = _FIGURES[name][1](args, obs)
        _render(name, results[name])
        _save_json(args, name, results[name])
    print("=" * 72)
    rows = figures.headline_table(images=args.images, error_scale=scale,
                                  obs=obs, jobs=args.jobs)
    print(render_comparison(rows, title="headline: paper vs measured"))
    _finish_trace(args, obs)

    if args.markdown:
        from pathlib import Path

        from repro.harness.tables import (
            render_comparison_markdown,
            render_figure_markdown,
        )

        md = ("# Reproduction report\n\n"
              + render_comparison_markdown(rows) + "\n"
              + "\n".join(render_figure_markdown(results[n])
                          for n in names))
        Path(args.markdown).write_text(md)
        print(f"wrote {args.markdown}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.harness.claims import (
        render_audit,
        verify_claims,
        verify_functional_claims,
    )

    obs = _obs_from_args(args)
    results = verify_claims(images=args.images, obs=obs)
    scale = _functional_scale(args)
    if scale is not None:
        results = results + verify_functional_claims(scale=scale)
    print(render_audit(results))
    _finish_trace(args, obs)
    return 0 if all(r.passed for r in results) else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.nn import get_model
    from repro.nn.weights import initialize_network
    from repro.vpu import compile_graph
    from repro.vpu.compiler import per_layer_report

    net = get_model(args.model)
    initialize_network(net)
    graph = compile_graph(net, num_shaves=args.shaves)
    print(per_layer_report(graph, top=args.top))
    return 0


def _cmd_profile_run(args: argparse.Namespace) -> int:
    from repro.harness.figures import _timing_framework
    from repro.obs import ObsSession

    obs = _obs_from_args(args) or ObsSession()
    fw = _timing_framework(args.images, obs=obs)
    run = fw.run("synthetic", args.target, batch_size=args.batch)
    print(run.summary())
    print()
    _finish_trace(args, obs, run.wall_seconds)
    return 0


def _chaos_run(images: int, devices: int, batch: int, timeout, plan,
               obs=None):
    """One timing-only run of the multi-VPU rig under fault ``plan``
    (None: healthy).

    Each run gets its own framework and simulation environment, so
    the runs are independent and the seeded plans make them
    deterministic — fanning them across processes returns the same
    :class:`RunResult` values as the serial sweep.
    """
    from repro.harness.experiment import paper_timing_graph
    from repro.ncsw import IntelVPU, NCSw, SyntheticSource

    fw = NCSw(obs=obs)
    fw.add_source("synthetic", SyntheticSource(images))
    fw.add_target("vpu", IntelVPU(
        graph=paper_timing_graph(), num_devices=devices,
        functional=False, fault_plan=plan, call_timeout=timeout))
    return fw.run("synthetic", "vpu", batch_size=batch)


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    """Deterministic chaos sweep: kill stick k at t, for each k.

    Runs a healthy baseline first, then one fault-tolerant run per
    victim stick with a seeded :class:`FaultPlan` that fails it at
    ``--kill-at`` of the baseline wall time.  A run passes when every
    non-abandoned image still comes back classified; the command
    exits non-zero if any run loses work it should have saved.
    ``--jobs N`` fans the per-victim runs across processes (tracing
    keeps the sweep serial).
    """
    from repro.harness.experiment import parallel_map
    from repro.ncsw import FaultPlan
    from repro.ncsw.faults import BUSY

    _check_kill_at(args)
    if args.kill_stick is not None and args.random_plans > 0:
        raise _Usage("--kill-stick and --random-plans are exclusive "
                     "(each random plan draws its own victim)")
    _check_sticks(args.devices, "--devices")
    _check_kill_stick(args.kill_stick, [args.devices])
    run = partial(_chaos_run, args.images, args.devices, args.batch)
    base = run(None, None)
    t_start = min(r.t_submit for r in base.records)
    kill_time = t_start + args.kill_at * base.wall_seconds
    max_latency = max(r.latency for r in base.records)
    # A hung call can only be detected by deadline; several healthy
    # inference times of slack keeps false positives at zero.
    timeout = (args.timeout if args.timeout is not None
               else max(4.0 * max_latency, 0.05))
    busy_duration = 0.1 * base.wall_seconds
    baseline_tput = base.throughput()
    print(f"baseline: {base.summary()}")
    print(f"chaos: kind={args.kind} kill_at={kill_time * 1000:.2f} ms "
          f"(t0+{args.kill_at:.0%} of wall) call_timeout={timeout:.3f} s "
          f"seed={args.seed}")

    if args.random_plans > 0:
        # Seeded random schedules: plan i draws its victim and kill
        # time from seed+i.  Same seed -> same sweep, byte for byte.
        plans = [(f"seed {args.seed + i}",
                  FaultPlan.seeded(
                      args.seed + i, args.devices,
                      horizon=base.wall_seconds, start=t_start,
                      kinds=(args.kind,), busy_duration=busy_duration))
                 for i in range(args.random_plans)]
    else:
        victims = ([args.kill_stick] if args.kill_stick is not None
                   else list(range(args.devices)))
        plans = [(f"kill vpu{victim}",
                  FaultPlan.kill(
                      victim, kill_time, kind=args.kind,
                      duration=(busy_duration if args.kind == BUSY
                                else 0.0)))
                 for victim in victims]
    obs = _obs_from_args(args)
    runs = parallel_map(partial(run, timeout, obs=obs),
                        [plan for _, plan in plans],
                        jobs=args.jobs if obs is None else 1)
    failed = False
    for (label, plan), res in zip(plans, runs):
        ok = res.images == args.images - res.abandoned
        failed = failed or not ok
        # Post-fault throughput over the survivors only.
        fault_time = min((f.at for f in plan.faults),
                         default=kill_time)
        after = [r for r in res.records if r.t_complete > fault_time]
        tput = ""
        if after:
            window = max(r.t_complete for r in after) - fault_time
            if window > 0:
                tput = (f" post-fault {len(after) / window:.1f} img/s "
                        f"({len(after) / window / baseline_tput:.0%} "
                        "of baseline)")
        print(f"  {label}: {'ok' if ok else 'LOST WORK'} | "
              f"{res.images}/{args.images} classified, "
              f"{res.reassigned} reassigned, {res.abandoned} "
              f"abandoned, {len(res.failures)} failure event(s)"
              + tput)
    _finish_trace(args, obs)
    if failed:
        print("chaos-run: FAILED (work lost without being abandoned)")
        return 1
    print("chaos-run: all victims survived with full accounting")
    return 0


def _parse_split_token(token: str):
    """Parse a split token like ``vpu4+cpu`` into (front, back, sticks).

    Exactly one side must be the VPU; the other a host tier.
    """
    def side(part: str):
        if part in ("cpu", "gpu"):
            return part, None
        if part == "vpu":
            return "vpu", 1
        if part.startswith("vpu") and part[3:].isdigit():
            return "vpu", int(part[3:])
        return None, None

    parts = token.split("+")
    if len(parts) != 2:
        raise _Usage(f"split spec {token!r} must be <front>+<back>")
    (front, n_front), (back, n_back) = side(parts[0]), side(parts[1])
    if front is None or back is None or \
            (front == "vpu") == (back == "vpu"):
        raise _Usage(f"split spec {token!r} needs exactly one vpu side "
                     "and one of cpu/gpu (e.g. vpu4+cpu, cpu+vpu2)")
    sticks = n_front if n_front is not None else n_back
    return front, back, _check_sticks(sticks, f"split spec {token!r}")


def _target(token: str, flag: str, *, split: bool, fault_plan=None,
            call_timeout=None):
    """One target from a ``cpu``, ``gpu`` or ``vpuN`` (N sticks, 1-8)
    token.

    With ``split``, also a placement ``<front>+<back>`` with exactly
    one VPU side (``vpu4+cpu``, ``cpu+vpu2``): the latency-optimal cut
    of the paper network pipelined across the two tiers.  Every
    target runs timing-only (non-functional) on the paper-scale
    GoogLeNet; a fault plan / call timeout arms a plain VPU token.
    """
    from repro.harness.experiment import (
        paper_timing_graph,
        paper_timing_network,
    )
    from repro.ncsw import IntelCPU, IntelVPU, NvGPU

    if token == "cpu":
        return IntelCPU(paper_timing_network(), functional=False)
    if token == "gpu":
        return NvGPU(paper_timing_network(), functional=False)
    if token.startswith("vpu") and token[3:].isdigit():
        return IntelVPU(graph=paper_timing_graph(),
                        num_devices=_check_sticks(int(token[3:]),
                                                  f"{flag} {token}"),
                        functional=False,
                        fault_plan=fault_plan, call_timeout=call_timeout)
    if split and "+" in token:
        from repro.split import build_split_target

        front, back, sticks = _parse_split_token(token)
        return build_split_target(
            paper_timing_network(), graph=paper_timing_graph(),
            front=front, back=back, num_sticks=sticks, functional=False)
    expected = "cpu, gpu, vpuN or front+back" if split else \
        "cpu, gpu or vpuN"
    raise _Usage(f"{flag}: unknown token {token!r} (expected {expected})")


def _serve_targets(spec: str, **faults) -> dict:
    """One target per ``--backends`` token (see :func:`_target`),
    keyed by the token; ``faults`` arm every plain VPU token."""
    return {token: _target(token, "--backends", split=True, **faults)
            for token in _tokens(spec, "--backends", "targets")}


def _cluster_targets(hosts: int, spec: str) -> list:
    """One fresh target per host from a spec like ``vpu2`` or
    ``vpu4,cpu``.

    Tokens cycle across the hosts, so ``--hosts 4 --host-backends
    vpu2,cpu`` alternates VPU and CPU hosts.  Every host gets its own
    target instance — cluster hosts share nothing but the simulated
    interconnect.  Split placements are serve-only.
    """
    if hosts < 1:
        raise _Usage(f"--hosts: need at least 1 host, got {hosts}")
    tokens = _tokens(spec, "--host-backends", "tokens")
    return [_target(tokens[i % len(tokens)], "--host-backends",
                    split=False) for i in range(hosts)]


def _closed_loop(name: str, target) -> tuple[float, int]:
    """Closed-loop capacity of one target: throughput of a 64-image
    synthetic campaign at its preferred batch, and that batch.  Every
    sweep brackets its bisection with it, and the autoscale commands
    size the day and the predictive policy with it."""
    from repro.ncsw import NCSw, SyntheticSource

    fw = NCSw()
    fw.add_source("synthetic", SyntheticSource(64))
    fw.add_target(name, target)
    batch = max(1, target.preferred_batch_size)
    return fw.run("synthetic", name, batch_size=batch).throughput(), batch


def _run_kwargs(args: argparse.Namespace) -> dict:
    """The run-spec flags (see :func:`_run_spec`) as the keyword
    arguments every server and the flow coordinator take."""
    return {"queue_depth": args.queue_depth,
            "admission": args.admission,
            "max_wait_s": args.max_wait / 1000.0,
            "slo_seconds": args.slo / 1000.0,
            "deadline_seconds": (args.deadline / 1000.0
                                 if args.deadline is not None else None),
            "warmup": args.warmup}


def _cmd_split_sweep(args: argparse.Namespace) -> int:
    """Map the split-placement design space of one device pairing."""
    from repro.split import (
        SplitPlanner,
        render_split_table,
        single_device_points,
    )

    try:
        front, back, sticks = _parse_split_token(args.devices)
    except _Usage as exc:
        print(exc)
        return 1
    if args.smoke:
        from repro.nn.zoo import get_model
        from repro.vpu.compiler.compile import compile_graph
        network = get_model("googlenet-micro")
        graph = compile_graph(network)
    else:
        from repro.harness.experiment import (
            paper_timing_graph,
            paper_timing_network,
        )
        network = paper_timing_network()
        graph = paper_timing_graph()
    planner = SplitPlanner(network, graph=graph, front=front,
                           back=back, num_sticks=sticks)
    plans = planner.sweep()
    if not plans:
        print(f"split-sweep: {network.name} has no valid cuts")
        return 1
    singles = single_device_points(network, graph, num_sticks=sticks)
    print(render_split_table(plans, singles,
                             objective=args.objective), end="")
    return 0


def _serve_workload(args: argparse.Namespace):
    """Build the arrival process selected by --workload."""
    from repro.serve import (
        BurstyWorkload,
        DiurnalWorkload,
        PoissonWorkload,
        TraceWorkload,
    )

    if args.workload == "poisson":
        return PoissonWorkload(rate=args.rate, seed=args.seed)
    if args.workload == "bursty":
        burst = (args.burst_rate if args.burst_rate is not None
                 else 4.0 * args.rate)
        return BurstyWorkload(base_rate=args.rate, burst_rate=burst,
                              seed=args.seed)
    if args.workload == "diurnal":
        return DiurnalWorkload(peak_rate=args.rate,
                               period_s=args.period, seed=args.seed)
    # replay
    if args.replay is None:
        raise _Usage("--workload replay needs --replay PATH")
    return TraceWorkload.from_file(args.replay)


def _serve_server(args: argparse.Namespace, targets, obs=None):
    from repro.serve import InferenceServer

    server = InferenceServer(max_batch_size=args.max_batch,
                             policy=args.route, obs=obs,
                             **_run_kwargs(args))
    for name, target in targets.items():
        server.add_target(name, target)
    return server


def _cmd_serve_run(args: argparse.Namespace) -> int:
    """One open-loop serving run with a full SLO report.

    With ``--kill-stick`` a healthy baseline runs first to locate the
    serving window, then the measured run fails that stick at
    ``--kill-at`` of the baseline's serving wall time — the serving
    analogue of ``chaos-run``.  Exits non-zero when nothing completes.
    """
    from repro.serve import render_slo_report

    workload = _serve_workload(args)
    _check_kill_at(args)

    faults = {}
    if args.kill_stick is not None:
        from repro.ncsw import FaultPlan, IntelVPU

        targets = _serve_targets(args.backends)
        _check_kill_stick(args.kill_stick,
                          [t.num_devices for t in targets.values()
                           if isinstance(t, IntelVPU)])
        base = _serve_server(args, targets).run(workload,
                                               args.requests)
        kill_time = (base.prepare_seconds
                     + args.kill_at * base.wall_seconds)
        faults = {"fault_plan": FaultPlan.kill(args.kill_stick,
                                               kill_time,
                                               kind=args.kind),
                  "call_timeout": args.timeout}
        print(f"baseline: {base.summary()}")
        print(f"chaos: kill stick {args.kill_stick} ({args.kind}) at "
              f"{kill_time * 1000:.2f} ms "
              f"(serving start + {args.kill_at:.0%} of wall)")
        print()

    targets = _serve_targets(args.backends, **faults)
    obs = _obs_from_args(args)
    result = _serve_server(args, targets, obs=obs).run(workload,
                                                       args.requests)
    print(render_slo_report(result, workload=workload.describe(),
                            **_alerts(obs, result)))
    _finish_serving(args, obs)
    return 0 if result.completed > 0 else 1


def _sweep_point(args: argparse.Namespace, token: str):
    """Worker for one serve-sweep configuration.

    Estimates the closed-loop capacity, then bisects the maximum
    sustainable arrival rate.  Every probe builds a fresh server and
    reseeds the workload, so configurations are independent of each
    other and the sweep fans across processes without changing any
    probe's outcome.  Returns ``(capacity, SweepResult)``.
    """
    from repro.serve import PoissonWorkload, find_max_rate

    capacity, _ = _closed_loop(token, _serve_targets(token)[token])

    def run_at(rate: float, token=token):
        srv = _serve_server(args, _serve_targets(token))
        return srv.run(PoissonWorkload(rate=rate, seed=args.seed),
                       args.requests)

    sweep = find_max_rate(run_at, slo_seconds=args.slo / 1000.0,
                          hi=2.0 * capacity, steps=args.steps,
                          label=token)
    return capacity, sweep


def _print_sweeps(outcomes) -> None:
    """Each sweep's verdict with its capacity, then the sweep table."""
    from repro.serve import render_sweep_table

    for capacity, sweep in outcomes:
        print(f"{sweep.summary()} "
              f"(closed-loop capacity {capacity:.1f} img/s)")
    print()
    print(render_sweep_table([sweep for _, sweep in outcomes]))


def _cmd_serve_sweep(args: argparse.Namespace) -> int:
    """Bisect the max sustainable arrival rate per configuration.

    Each ``--configs`` token becomes one single-backend configuration
    (e.g. ``vpu1,vpu2,vpu4,vpu8`` sweeps the paper's stick scaling in
    the serving regime).  The starting bracket is twice the measured
    closed-loop throughput of each configuration.  ``--jobs N`` fans
    the configurations across processes; output is collected and
    printed in configuration order either way.
    """
    from repro.harness.experiment import parallel_map

    tokens = _tokens(args.configs, "--configs", "configurations")
    _print_sweeps(parallel_map(partial(_sweep_point, args), tokens,
                               jobs=args.jobs))
    return 0


def _flow_coordinator(args: argparse.Namespace, wf, obs=None):
    """A FlowCoordinator wired from the workflow-* CLI flags."""
    from repro.flow import FlowCoordinator

    return FlowCoordinator(wf, seed=args.seed, obs=obs,
                           **_run_kwargs(args))


def _cmd_workflow_run(args: argparse.Namespace) -> int:
    """One open-loop run of a built-in workflow DAG.

    Prints the compiled graph (groups, edges, fan-out regions), then
    the workflow report: per-stage serving tables, fan-out accounting
    and the workflow-level SLO roll-up.  Exits non-zero when nothing
    completes.
    """
    from repro.errors import FlowError
    from repro.flow import build_workflow, render_workflow_report
    from repro.serve import PoissonWorkload

    _check_sticks(args.devices, "--devices")
    if args.smoke:
        args.requests = min(args.requests, 40)
        args.rate = min(args.rate, 80.0)
        args.devices = min(args.devices, 2)

    kwargs = {"vpu_devices": args.devices}
    if args.workflow == "cascade" and args.stage_slo is not None:
        kwargs["stage_slo_seconds"] = args.stage_slo / 1000.0
    try:
        wf = build_workflow(args.workflow, args.scale, **kwargs)
    except FlowError as exc:
        raise _Usage(f"workflow-run: {exc}") from exc
    print(wf.describe())
    print()

    obs = _obs_from_args(args)
    workload = PoissonWorkload(rate=args.rate, seed=args.seed)
    result = _flow_coordinator(args, wf, obs=obs).run(
        workload, args.requests)
    print(render_workflow_report(result,
                                 workload=workload.describe()))
    _finish_serving(args, obs)
    return 0 if result.completed > 0 else 1


def _cmd_workflow_sweep(args: argparse.Namespace) -> int:
    """Cascade vs monolithic classify at matched offered rates.

    At each rate the same Poisson arrival process drives both the
    detect→crop→classify cascade and a single monolithic classify
    stage, so the table isolates what the extra pipeline stages cost
    (fan-out multiplies backend load; the join stretches the tail).
    """
    from repro.flow import build_workflow
    from repro.serve import PoissonWorkload

    _check_sticks(args.devices, "--devices")
    if args.smoke:
        args.requests = min(args.requests, 30)
        if args.rates is None:
            args.rates = "20,40"
        args.devices = min(args.devices, 2)
    if args.rates is None:
        args.rates = "20,40,80"
    try:
        rates = [float(t)
                 for t in _tokens(args.rates, "--rates", "rates")]
    except ValueError:
        raise _Usage(f"--rates: bad rate list {args.rates!r}") from None

    print(f"== cascade vs monolithic (scale {args.scale}, "
          f"{args.requests} workflows per point, SLO "
          f"{args.slo:.0f} ms) ==")
    print(f"{'rate wf/s':>9}  {'workflow':<12} {'done':>9} "
          f"{'sub-req':>7} {'p50 ms':>9} {'p99 ms':>9} "
          f"{'SLO att':>8} {'goodput':>8}")
    worst_loss = 0.0
    for rate in rates:
        for name in ("cascade", "monolithic"):
            wf = build_workflow(name, args.scale,
                                vpu_devices=args.devices)
            result = _flow_coordinator(args, wf).run(
                PoissonWorkload(rate=rate, seed=args.seed),
                args.requests)
            worst_loss = max(worst_loss, result.loss_rate)
            done = f"{result.completed}/{result.offered}"
            try:
                p50 = f"{result.p50 * 1000:9.3f}"
                p99 = f"{result.p99 * 1000:9.3f}"
            except ValueError:
                p50 = f"{'-':>9}"
                p99 = f"{'-':>9}"
            print(f"{rate:>9.1f}  {name:<12} {done:>9} "
                  f"{result.sub_requests_spawned:>7} {p50} {p99} "
                  f"{result.slo_attainment:>7.1%} "
                  f"{result.goodput:>8.2f}")
    print()
    print(f"worst-case workflow loss across the sweep: "
          f"{worst_loss:.1%}")
    return 0


def _cluster_server(args: argparse.Namespace, targets, *,
                    host_faults=None, autoscaler=None, obs=None):
    from repro.cluster import ClusterServer

    return ClusterServer(
        targets,
        window=args.window,
        spill_threshold=args.spill_threshold,
        max_batch_size=args.max_batch,
        host_faults=host_faults,
        autoscaler=autoscaler,
        obs=obs,
        **_run_kwargs(args))


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    """One sharded cluster serving run with a full roll-up report.

    With ``--kill-host`` a healthy baseline runs first to locate the
    serving window, then the measured run kills that whole rank at
    ``--kill-at`` of the baseline's serving wall time — the cluster
    analogue of ``serve-run --kill-stick``, except an entire host
    (channel, queue, batcher, backends) dies and its owned requests
    re-shard to the survivors.  Exits non-zero when nothing completes.
    """
    from repro.cluster import render_cluster_report
    from repro.serve import PoissonWorkload

    _check_kill_at(args)
    if (args.kill_host is not None
            and not 0 <= args.kill_host < args.hosts):
        raise _Usage(f"--kill-host must be in [0, {args.hosts - 1}], "
                     f"got {args.kill_host}")
    workload = PoissonWorkload(rate=args.rate, seed=args.seed)

    host_faults = None
    if args.kill_host is not None:
        from repro.ncsw import FaultPlan

        targets = _cluster_targets(args.hosts, args.host_backends)
        base = _cluster_server(args, targets).run(workload,
                                                  args.requests)
        kill_time = (base.prepare_seconds
                     + args.kill_at * base.wall_seconds)
        host_faults = FaultPlan.kill(args.kill_host, kill_time)
        print(f"baseline: {base.summary()}")
        print(f"chaos: kill host {args.kill_host} (whole rank "
              f"{args.kill_host + 1}) at {kill_time * 1000:.2f} ms "
              f"(serving start + {args.kill_at:.0%} of wall)")
        print()

    targets = _cluster_targets(args.hosts, args.host_backends)
    obs = _obs_from_args(args)
    result = _cluster_server(args, targets, host_faults=host_faults,
                             obs=obs).run(workload, args.requests)
    print(render_cluster_report(result,
                                workload=workload.describe(),
                                **_alerts(obs, result)))
    _finish_serving(args, obs)
    return 0 if result.completed > 0 else 1


def _cluster_sweep_point(args: argparse.Namespace, hosts: int):
    """Worker for one cluster-sweep host count.

    The bracket is twice the summed closed-loop capacity of the host
    targets (each unique backend token measured once).  Every probe
    builds a fresh cluster and reseeds the workload, mirroring
    ``serve-sweep``'s independence contract, so host counts fan
    across processes without changing any probe's outcome.  Returns
    ``(capacity, SweepResult)``.
    """
    from repro.serve import PoissonWorkload, find_max_rate

    tokens = _tokens(args.host_backends, "--host-backends", "tokens")
    per_token: dict[str, float] = {}
    for token in tokens[:hosts]:
        if token not in per_token:
            per_token[token], _ = _closed_loop(
                token, _cluster_targets(1, token)[0])
    capacity = sum(per_token[tokens[i % len(tokens)]]
                   for i in range(hosts))

    def run_at(rate: float, hosts=hosts):
        targets = _cluster_targets(hosts, args.host_backends)
        srv = _cluster_server(args, targets)
        return srv.run(PoissonWorkload(rate=rate, seed=args.seed),
                       args.requests)

    sweep = find_max_rate(run_at, slo_seconds=args.slo / 1000.0,
                          hi=2.0 * capacity, steps=args.steps,
                          label=f"hosts={hosts}")
    return capacity, sweep


def _cmd_cluster_sweep(args: argparse.Namespace) -> int:
    """Max sustainable arrival rate per cluster size.

    The cluster analogue of ``serve-sweep``: each ``--hosts`` count
    becomes one sharded-cluster configuration and the sweep bisects
    its maximum sustainable arrival rate under the shared SLO — the
    hosts-scaling curve (how close does N hosts get to N times one
    host's rate).  ``--smoke`` shrinks everything to CI size.
    """
    from repro.harness.experiment import parallel_map

    if args.smoke:
        args.requests = min(args.requests, 96)
        args.steps = min(args.steps, 3)
        if args.hosts is None:
            args.hosts = "1,2"
    if args.hosts is None:
        args.hosts = "1,2,4,8"
    try:
        counts = [int(t) for t in args.hosts.split(",") if t.strip()]
    except ValueError:
        raise _Usage(f"--hosts: expected a comma list of host counts, "
                     f"got {args.hosts!r}") from None
    if not counts or any(n < 1 for n in counts):
        raise _Usage(f"--hosts: host counts must be >= 1, "
                     f"got {args.hosts!r}")
    _print_sweeps(parallel_map(partial(_cluster_sweep_point, args),
                               counts, jobs=args.jobs))
    return 0


def _autoscale_setup(args: argparse.Namespace):
    """Shared autoscale-run/-sweep setup: the ``--smoke`` shrink, the
    diurnal day trace and the per-host capacity of the first
    ``--host-backends`` token.  Returns ``(workload, host_rate,
    floor_s)``; the last is the per-request service-latency floor
    (one calibration batch) the fluid model attributes to every
    completion."""
    from repro.serve import DiurnalWorkload

    if args.smoke:
        args.requests = min(args.requests, 120)
        args.pool = min(args.pool, 3)
    if args.pool < 1:
        raise _Usage(f"--pool: need at least 1 slot, got {args.pool}")
    token = _tokens(args.host_backends, "--host-backends", "tokens")[0]
    host_rate, batch = _closed_loop(token, _cluster_targets(1, token)[0])
    peak = (args.peak_rate if args.peak_rate is not None
            else 2.5 * host_rate)
    workload = DiurnalWorkload(peak_rate=peak, period_s=args.period,
                               floor_frac=args.floor, seed=args.seed)
    return workload, host_rate, batch / host_rate


def _autoscaler_from_args(args: argparse.Namespace, workload,
                          host_rate: float, kind: str):
    from repro.cluster import (
        Autoscaler,
        PredictivePolicy,
        ReactivePolicy,
    )

    if kind == "predictive":
        policy = PredictivePolicy(workload, host_rate=host_rate,
                                  lead_s=args.lead / 1000.0,
                                  utilization=args.utilization)
    else:
        policy = ReactivePolicy(high_water=args.high_water,
                                low_water=args.low_water)
    max_hosts = args.max_hosts if args.max_hosts is not None \
        else args.pool
    return Autoscaler(policy,
                      min_hosts=args.min_hosts,
                      max_hosts=max_hosts,
                      interval_s=args.interval / 1000.0,
                      cooldown_s=args.cooldown / 1000.0,
                      warm_pool=args.warm_pool)


def _elastic_run(args: argparse.Namespace, workload, host_rate: float,
                 floor_s: float, *, pool: int, autoscaler=None,
                 fluid: bool = False):
    """One day over ``pool`` host slots: the hybrid fluid model, or
    the per-request DES cluster."""
    if fluid:
        from repro.sim.fluid import FluidCluster

        return FluidCluster(
            workload, host_rate=host_rate, pool=pool,
            autoscaler=autoscaler, slo_seconds=args.slo / 1000.0,
            service_floor_s=floor_s, seed=args.seed).run(args.requests)
    targets = _cluster_targets(pool, args.host_backends)
    return _cluster_server(args, targets, autoscaler=autoscaler).run(
        workload, args.requests)


def _cmd_autoscale_run(args: argparse.Namespace) -> int:
    """One elastic cluster run over a diurnal day trace.

    A pool of ``--pool`` host slots sits behind the frontend; the
    chosen policy (reactive by default) scales the live set against
    the modelled day.  Exits non-zero when any request was lost —
    elastic scaling must never drop work.
    """
    from repro.cluster import render_cluster_report

    fluid = args.fluid or args.fluid_gate
    if fluid and (args.trace is not None or args.metrics is not None):
        raise _Usage("--trace/--metrics: the fluid model records no "
                     "spans; drop --fluid/--fluid-gate to trace")
    workload, host_rate, floor_s = _autoscale_setup(args)
    if fluid:
        return _autoscale_run_fluid(args, workload, host_rate,
                                    floor_s)
    autoscaler = _autoscaler_from_args(args, workload, host_rate,
                                       args.policy)
    targets = _cluster_targets(args.pool, args.host_backends)
    obs = _obs_from_args(args)
    result = _cluster_server(args, targets, autoscaler=autoscaler,
                             obs=obs).run(workload, args.requests)
    print(f"policy: {autoscaler.policy.describe()} "
          f"(~{host_rate:.1f} req/s/host closed loop)")
    print()
    print(render_cluster_report(result,
                                workload=workload.describe(),
                                **_alerts(obs, result)))
    _finish_serving(args, obs)
    lost = result.offered - result.completed
    if lost:
        print()
        print(f"LOST {lost} requests across scale events")
    return 0 if result.completed > 0 and lost == 0 else 1


def _autoscale_run_fluid(args: argparse.Namespace, workload,
                         host_rate: float, floor_s: float) -> int:
    """Hybrid fluid run of the elastic day (``--fluid``).

    ``--fluid-gate`` additionally runs the pure-DES cluster on the
    same configuration and asserts fluid/DES agreement; the command
    exits non-zero when the equivalence gate fails.
    """
    from repro.sim.fluid import equivalence_gate

    run = partial(_elastic_run, args, workload, host_rate, floor_s,
                  pool=args.pool)
    autoscaler = _autoscaler_from_args(args, workload, host_rate,
                                       args.policy)
    fluid = run(autoscaler=autoscaler, fluid=True)
    print(f"policy: {autoscaler.policy.describe()} "
          f"(~{host_rate:.1f} req/s/host closed loop)")
    print(f"fluid: {fluid.summary()}")
    print(f"scale events: {len(fluid.scale_events)}")
    if not args.fluid_gate:
        return 0
    result = run(autoscaler=_autoscaler_from_args(
        args, workload, host_rate, args.policy))
    print(f"des:   {result.summary()}")
    print()
    report = equivalence_gate(fluid, result)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_autoscale_sweep(args: argparse.Namespace) -> int:
    """The cost-vs-SLO frontier: elastic policies vs fixed-N.

    Runs the same diurnal day trace through every fixed host count
    (1..pool) and both autoscale policies, then renders host-seconds
    against SLO attainment — the economics table: how much capacity
    does tracking the day shape save at equal service quality.
    """
    from repro.cluster import cost_point, render_cost_table

    workload, host_rate, floor_s = _autoscale_setup(args)
    print(f"calibrated: ~{host_rate:.1f} req/s/host closed-loop "
          f"capacity, day peak {workload.peak_rate:.4g} req/s")
    run = partial(_elastic_run, args, workload, host_rate, floor_s,
                  fluid=args.fluid)
    points = []
    for n in range(1, args.pool + 1):
        result = run(pool=n)
        points.append(cost_point(f"fixed-{n}", result))
        print(f"fixed-{n}: {result.summary()}")
    for kind in ("reactive", "predictive"):
        result = run(pool=args.pool, autoscaler=_autoscaler_from_args(
            args, workload, host_rate, kind))
        points.append(cost_point(kind, result))
        print(f"{kind}: {result.summary()}")
    print()
    print(render_cost_table(points, slo_seconds=args.slo / 1000.0))
    return 0


def _cmd_trace_analyze(args: argparse.Namespace) -> int:
    """Offline analysis of a recorded metrics JSONL dump.

    Loads a file written by ``serve-run --metrics`` / ``cluster-run
    --metrics`` (or :func:`repro.obs.write_metrics_jsonl` directly)
    and prints the windowed timeline, per-request waterfalls, and the
    burn-rate / anomaly alerts recomputed from the recorded events —
    no re-simulation required.
    """
    from repro.errors import ObservabilityError
    from repro.obs import (
        burn_rate_alerts,
        dead_rank_alerts,
        default_policy,
        load_metrics_jsonl,
        outcomes_from_traces,
        queue_slope_alerts,
        render_alerts,
        render_timeline,
        render_waterfall,
    )

    try:
        session = load_metrics_jsonl(args.path)
    except (OSError, ObservabilityError) as exc:
        raise _Usage(f"trace-analyze: {exc}") from exc
    extent = session.tracer.extent
    traces = session.reqtrace.traces()
    print(f"trace analysis of {args.path}")
    print(f"  extent : {extent * 1000:.1f} ms simulated")
    print(f"  traces : {len(traces)} sampled requests")
    print()
    width = args.window / 1000.0
    print(render_timeline(session, width=width))
    shown = 0
    for trace in traces:
        if shown >= args.waterfalls:
            break
        if trace.completed:
            print()
            print(render_waterfall(session.reqtrace, trace.trace_id))
            shown += 1
    alerts = []
    policy = None
    if traces and extent > 0:
        policy = default_policy(extent)
        outcomes = outcomes_from_traces(session.reqtrace,
                                        args.slo / 1000.0)
        alerts.extend(burn_rate_alerts(outcomes, extent, policy))
    if extent > 0:
        alerts.extend(queue_slope_alerts(session, width=width,
                                         end=extent))
    alerts.extend(dead_rank_alerts(session))
    alerts.sort(key=lambda a: (a.at, a.kind, a.metric))
    print()
    print(render_alerts(alerts, policy=policy))
    return 0


# -- flag groups: every flag is declared once, in exactly one group --
#
# A group adds its flags to each subparser afresh instead of being an
# argparse ``parents=`` parser: children share a parent's Action
# objects, so one command's ``set_defaults`` would re-default all its
# siblings.

def _images(p: argparse.ArgumentParser) -> None:
    p.add_argument("--images", type=int, default=160,
                   help="images per run (default 160)")


def _batch(p: argparse.ArgumentParser) -> None:
    p.add_argument("--batch", type=int, default=8,
                   help="images per batch (default 8)")


def _trace(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record a Perfetto trace_event JSON here and "
                        "print the utilisation report")


def _obs(p: argparse.ArgumentParser) -> None:
    _trace(p)
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="dump the metric/trace events as JSONL for "
                        "offline trace-analyze")


def _jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="fan independent runs across N processes "
                        "(results identical to --jobs 1; tracing and "
                        "jitter keep the run serial)")


def _smoke(p: argparse.ArgumentParser) -> None:
    p.add_argument("--smoke", action="store_true",
                   help="shrink the run to CI size")


def _seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="workload (or random fault plan) seed; same "
                        "seed -> byte-identical run")


def _slo(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slo", type=float, default=500.0, metavar="MS",
                   help="p99 end-to-end latency objective in ms "
                        "(default %(default)s; one paper-scale "
                        "inference is ~100 ms)")


def _sticks(p: argparse.ArgumentParser) -> None:
    p.add_argument("--devices", type=int, default=8,
                   help="NCS sticks of the VPU rig, or behind each VPU "
                        "stage (1-8; default %(default)s)")


def _rate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rate", type=float, default=50.0,
                   help="arrival rate per second: the Poisson rate, "
                        "the bursty base rate or the diurnal peak "
                        "(default %(default)s)")


def _period(p: argparse.ArgumentParser) -> None:
    p.add_argument("--period", type=float, default=10.0, metavar="S",
                   help="diurnal period, one traffic day, in seconds "
                        "(default %(default)s)")


def _steps(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, default=8,
                   help="bisection steps per configuration (default 8)")


def _kill_at(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kill-at", type=float, default=0.5, metavar="FRAC",
                   help="fault time as a fraction of the healthy "
                        "baseline's (serving) wall time (default 0.5)")


def _chaos(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kill-stick", type=int, default=None, metavar="K",
                   help="fail VPU stick K mid-run after a healthy "
                        "baseline (chaos-run default: each in turn)")
    _kill_at(p)
    p.add_argument("--kind", default="death",
                   choices=["death", "hang", "thermal", "busy"])
    p.add_argument("--timeout", type=float, default=0.5,
                   help="per-call NCAPI deadline in seconds (default "
                        "%(default)s; None: 4x the baseline's max "
                        "latency)")


def _campaign(p: argparse.ArgumentParser) -> None:
    """The paper artefacts: figures, headline, report and audit."""
    _images(p)
    p.add_argument("--scale", default="default",
                   help="functional scale: smoke|default|paper "
                        "(none skips the top-1 error experiments)")
    _trace(p)


def _json_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json-dir", default=None,
                   help="also save each figure as JSON here")


def _run_spec(p: argparse.ArgumentParser) -> None:
    """What every open-loop serving run shares (see _run_kwargs)."""
    p.add_argument("--requests", type=int, default=200,
                   help="requests (workflows) per run "
                        "(default %(default)s)")
    _seed(p)
    _slo(p)
    p.add_argument("--deadline", type=float, default=None, metavar="MS",
                   help="per-request queue deadline in ms, shared by "
                        "every stage a workflow touches (default: none)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission queue bound, per host or stage "
                        "(default 64)")
    p.add_argument("--admission", default=REJECT_NEWEST, choices=POLICIES,
                   help="overload policy at each admission queue")
    p.add_argument("--max-wait", type=float, default=2.0, metavar="MS",
                   help="dynamic batcher window in ms (default 2)")
    p.add_argument("--warmup", type=int, default=0,
                   help="leading completions excluded from latency stats")


def _server(p: argparse.ArgumentParser) -> None:
    _run_spec(p)
    p.add_argument("--max-batch", type=int, default=None,
                   help="batch size cap (default: backend preference)")


def _serve(p: argparse.ArgumentParser) -> None:
    _server(p)
    p.add_argument("--route", default="round-robin",
                   choices=["round-robin", "least-outstanding",
                            "latency-ewma"],
                   help="backend routing policy")


def _cluster(p: argparse.ArgumentParser) -> None:
    _server(p)
    p.add_argument("--host-backends", default="vpu2", metavar="SPEC",
                   help="comma list of per-host targets, cycled across "
                        "hosts (cpu / gpu / vpuN tokens; default vpu2)")
    p.add_argument("--window", type=int, default=8,
                   help="per-shard stream window (default 8)")
    p.add_argument("--spill-threshold", type=int, default=None,
                   metavar="N",
                   help="outstanding requests before a shard spills to "
                        "the least-loaded host (default: window + queue "
                        "depth)")


def _autoscale(p: argparse.ArgumentParser) -> None:
    _cluster(p)
    p.add_argument("--pool", type=int, default=4, metavar="N",
                   help="host slots the frontend may scale across "
                        "(default 4)")
    p.add_argument("--peak-rate", type=float, default=None, metavar="RPS",
                   help="diurnal peak arrival rate (default: 2.5x one "
                        "host's closed-loop throughput)")
    _period(p)
    p.add_argument("--floor", type=float, default=0.1, metavar="FRAC",
                   help="overnight trough as a fraction of peak "
                        "(default 0.1)")
    p.add_argument("--min-hosts", type=int, default=1,
                   help="autoscaler floor (default 1)")
    p.add_argument("--max-hosts", type=int, default=None,
                   help="autoscaler ceiling (default: the pool size)")
    p.add_argument("--interval", type=float, default=20.0, metavar="MS",
                   help="autoscaler tick interval in ms (default 20)")
    p.add_argument("--cooldown", type=float, default=50.0, metavar="MS",
                   help="minimum gap between scale actions in ms "
                        "(default 50)")
    p.add_argument("--warm-pool", type=int, default=1, metavar="N",
                   help="idle slots kept pre-initialised (default 1)")
    p.add_argument("--high-water", type=float, default=4.0, metavar="N",
                   help="reactive: per-host outstanding before "
                        "scale-out (default 4)")
    p.add_argument("--low-water", type=float, default=1.0, metavar="N",
                   help="reactive: per-host outstanding after removal "
                        "that permits scale-in (default 1)")
    p.add_argument("--lead", type=float, default=100.0, metavar="MS",
                   help="predictive: pre-warm lead time in ms "
                        "(default 100)")
    p.add_argument("--utilization", type=float, default=0.7,
                   metavar="FRAC",
                   help="predictive: target per-host utilisation "
                        "(default 0.7)")
    _smoke(p)
    p.add_argument("--fluid", action="store_true",
                   help="hybrid fluid/DES model instead of per-request "
                        "DES (million-user days in milliseconds; see "
                        "DESIGN.md section 16 for the validity envelope)")


def _flow(p: argparse.ArgumentParser) -> None:
    _run_spec(p)
    p.add_argument("--scale", default="micro", choices=["micro", "mini"],
                   help="workflow model scale (default micro)")
    _sticks(p)
    _smoke(p)


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--markdown", default=None,
                   help="write the full report as markdown here")


def _profile_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="googlenet-mini")
    p.add_argument("--shaves", type=int, default=12)
    p.add_argument("--top", type=int, default=None)


def _profile_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", default="vpu8",
                   choices=["cpu", "gpu", "vpu1", "vpu2", "vpu4", "vpu8"])


def _chaos_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--random-plans", type=int, default=0, metavar="N",
                   help="run N seeded random schedules instead of the "
                        "per-stick sweep")


def _serve_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backends", default="vpu8",
                   help="comma list of cpu / gpu / vpuN / front+back "
                        "targets (default vpu8)")
    p.add_argument("--workload", default="poisson",
                   choices=["poisson", "bursty", "diurnal", "replay"])
    p.add_argument("--burst-rate", type=float, default=None,
                   help="bursty peak rate (default: 4x --rate)")
    p.add_argument("--replay", default=None, metavar="PATH",
                   help="arrival-offsets file for --workload replay")


def _serve_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--configs", default="vpu1,vpu2,vpu4,vpu8",
                   help="comma list of configurations to sweep "
                        "(default vpu1,vpu2,vpu4,vpu8)")


def _split_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--devices", default="vpu1+cpu",
                   help="placement pair <front>+<back> with exactly one "
                        "vpu side (default vpu1+cpu)")
    p.add_argument("--objective", default="latency",
                   choices=["latency", "throughput", "energy"],
                   help="objective of the best-cut line (default latency)")


def _cluster_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hosts", type=int, default=4,
                   help="number of serving hosts / ranks (default 4)")
    p.add_argument("--kill-host", type=int, default=None, metavar="K",
                   help="kill whole host K mid-run (runs a baseline "
                        "first)")


def _cluster_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hosts", default=None, metavar="LIST",
                   help="comma list of host counts to sweep "
                        "(default 1,2,4,8; 1,2 with --smoke)")


def _autoscale_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", default="reactive",
                   choices=["reactive", "predictive"],
                   help="scale policy (default reactive)")
    p.add_argument("--fluid-gate", action="store_true",
                   help="run BOTH the fluid model and the pure-DES "
                        "cluster, print the equivalence gate, exit "
                        "non-zero on disagreement")


def _workflow_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workflow", default="cascade",
                   choices=["cascade", "ensemble", "escalate",
                            "monolithic"],
                   help="built-in workflow to run (default cascade)")
    p.add_argument("--stage-slo", type=float, default=None, metavar="MS",
                   help="per-stage SLO in ms for the cascade's model "
                        "stages (default: none)")


def _workflow_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rates", default=None, metavar="LIST",
                   help="comma list of offered rates in workflows/s "
                        "(default 20,40,80; 20,40 with --smoke)")


def _trace_analyze_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", metavar="PATH",
                   help="metrics JSONL file from serve-run/cluster-run "
                        "--metrics")
    p.add_argument("--window", type=float, default=50.0, metavar="MS",
                   help="timeline aggregation window in ms (default 50)")
    p.add_argument("--waterfalls", type=int, default=1, metavar="N",
                   help="completed request waterfalls to print "
                        "(default 1)")


class Command(NamedTuple):
    """One subcommand of ``python -m repro``."""

    description: str
    flags: tuple[Callable[[argparse.ArgumentParser], None], ...]
    run: Callable[[argparse.Namespace], int]
    #: Defaults this command overrides in its flag groups.
    defaults: dict = {}


# Request counts per command family; tests/test_cli_surface.py pins
# every default.
_CLUSTER_DEFAULTS = {"requests": 300}
_FLOW_DEFAULTS = {"requests": 80, "slo": 800.0, "devices": 4}

COMMANDS: dict[str, Command] = {
    "list": Command("list available experiments", (), _cmd_list),
    **{name: Command(description, (_campaign, _json_dir, _jobs),
                     _cmd_figure)
       for name, (description, _) in _FIGURES.items()},
    "headline": Command("the paper's §IV/§V headline numbers",
                        (_campaign, _jobs), _cmd_headline),
    "audit": Command("verify every quantitative claim in the paper",
                     (_campaign,), _cmd_audit),
    "report": Command("all of the above in one run",
                      (_campaign, _json_dir, _jobs, _report_flags),
                      _cmd_report),
    "profile": Command("per-layer VPU timing report for a zoo model",
                       (_profile_flags,), _cmd_profile),
    "profile-run": Command("one instrumented run + utilisation report",
                           (_profile_run_flags, _images, _batch, _trace),
                           _cmd_profile_run),
    "chaos-run": Command("seeded fault-injection sweep (kill stick k)",
                         (_sticks, _images, _batch, _chaos, _seed,
                          _chaos_run_flags, _trace, _jobs),
                         _cmd_chaos_run, {"timeout": None}),
    "serve-run": Command("open-loop serving run with an SLO report",
                         (_serve, _serve_run_flags, _rate, _period,
                          _chaos, _obs),
                         _cmd_serve_run),
    "serve-sweep": Command("max sustainable arrival rate per config",
                           (_serve, _serve_sweep_flags, _steps, _jobs),
                           _cmd_serve_sweep),
    "split-sweep": Command("Pareto map of two-tier layer-cut placements",
                           (_split_sweep_flags, _smoke), _cmd_split_sweep),
    "cluster-run": Command("sharded multi-host serving run (MPI sim)",
                           (_cluster, _cluster_run_flags, _rate,
                            _kill_at, _obs),
                           _cmd_cluster_run,
                           {**_CLUSTER_DEFAULTS, "rate": 100.0}),
    "cluster-sweep": Command("max sustainable rate per cluster size",
                             (_cluster, _cluster_sweep_flags, _steps,
                              _smoke, _jobs),
                             _cmd_cluster_sweep, _CLUSTER_DEFAULTS),
    "autoscale-run": Command("elastic cluster run under a diurnal day",
                             (_autoscale, _autoscale_run_flags, _obs),
                             _cmd_autoscale_run,
                             {**_CLUSTER_DEFAULTS, "period": 2.0}),
    "autoscale-sweep": Command(
        "cost-vs-SLO frontier: autoscalers vs fixed-N", (_autoscale,),
        _cmd_autoscale_sweep, {**_CLUSTER_DEFAULTS, "period": 2.0}),
    "workflow-run": Command(
        "multi-model workflow DAG run (cascade / ensemble / escalate)",
        (_flow, _workflow_run_flags, _rate, _obs), _cmd_workflow_run,
        {**_FLOW_DEFAULTS, "rate": 40.0}),
    "workflow-sweep": Command(
        "cascade vs monolithic classify at matched rates",
        (_flow, _workflow_sweep_flags), _cmd_workflow_sweep,
        _FLOW_DEFAULTS),
    "trace-analyze": Command(
        "offline timeline/waterfall/alert report from a --metrics dump",
        (_trace_analyze_flags, _slo), _cmd_trace_analyze),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser from ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.description)
        for add_flags in command.flags:
            add_flags(p)
        p.set_defaults(**command.defaults)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(args)
    except _Usage as exc:
        print(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
