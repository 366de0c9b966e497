"""Command-line interface: regenerate any paper artefact from a shell.

::

    python -m repro list
    python -m repro fig6a --images 160 --trace /tmp/fig6a.json
    python -m repro fig7a --scale default
    python -m repro headline
    python -m repro report --scale smoke     # everything
    python -m repro profile --model googlenet-mini
    python -m repro profile-run --target vpu8 --trace /tmp/run.json
    python -m repro chaos-run --devices 8 --kill-at 0.5 --kind death

``--trace out.json`` on any experiment records a span timeline into
a Chrome/Perfetto ``trace_event`` file (open at
https://ui.perfetto.dev) and prints the per-device utilisation
report; ``profile-run`` does one instrumented run and reports even
without ``--trace``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

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


def _finish_trace(args: argparse.Namespace, obs) -> None:
    """Print the utilisation report and write the trace file."""
    if obs is None:
        return
    from repro.harness.export import save_trace_json
    from repro.obs import utilisation_report

    print(utilisation_report(obs))
    if getattr(args, "trace", None) is not None:
        path = save_trace_json(obs, args.trace)
        print(f"wrote trace {path} "
              "(open in https://ui.perfetto.dev)")
    if getattr(args, "metrics", None) is not None:
        from repro.obs import write_metrics_jsonl

        path = write_metrics_jsonl(obs, args.metrics)
        print(f"wrote metrics {path} (analyze with "
              f"`python -m repro trace-analyze {path}`)")


def _serve_trace_extras(obs) -> None:
    """Per-request waterfall of the first completed sampled trace."""
    if obs is None:
        return
    from repro.obs import render_waterfall

    done = [t for t in obs.reqtrace.traces() if t.completed]
    if done:
        print(render_waterfall(obs.reqtrace, done[0].trace_id))
        print()

_BAR_FIGURES = {"fig6a", "fig7a"}


def _cmd_list(_args: argparse.Namespace) -> int:
    print("available experiments:")
    for name, (desc, _) in _FIGURES.items():
        print(f"  {name:<9} {desc}")
    print("  headline  the paper's §IV/§V headline numbers")
    print("  audit     verify every quantitative claim in the paper")
    print("  report    all of the above in one run")
    print("  profile   per-layer VPU timing report for a zoo model")
    print("  profile-run  one instrumented run + utilisation report")
    print("  chaos-run    seeded fault-injection sweep (kill stick k)")
    print("  serve-run    open-loop serving run with an SLO report")
    print("  serve-sweep  max sustainable arrival rate per config")
    print("  split-sweep  Pareto map of two-tier layer-cut "
          "placements")
    print("  cluster-run  sharded multi-host serving run (MPI sim)")
    print("  cluster-sweep  max sustainable rate per cluster size")
    print("  autoscale-run  elastic cluster run under a diurnal day")
    print("  autoscale-sweep  cost-vs-SLO frontier: autoscalers vs "
          "fixed-N")
    print("  workflow-run  multi-model workflow DAG run (cascade / "
          "ensemble / escalate)")
    print("  workflow-sweep  cascade vs monolithic classify at "
          "matched rates")
    print("  trace-analyze  offline timeline/waterfall/alert report "
          "from a --metrics dump")
    return 0


def _render(name: str, result) -> None:
    print(render_figure_table(result))
    print()
    if name in _BAR_FIGURES:
        print(bar_chart(result))
    else:
        print(line_chart(result))
    print()


def _cmd_figure(name: str, args: argparse.Namespace) -> int:
    obs = _obs_from_args(args)
    result = _FIGURES[name][1](args, obs)
    _render(name, result)
    _finish_trace(args, obs)
    if getattr(args, "json_dir", None):
        from pathlib import Path

        from repro.harness.export import save_figure_json

        out = Path(args.json_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_figure_json(result, out / f"{name}.json")
        print(f"saved {out / (name + '.json')}")
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    scale = None if args.scale in (None, "none") else args.scale
    obs = _obs_from_args(args)
    rows = figures.headline_table(images=args.images, error_scale=scale,
                                  obs=obs, jobs=args.jobs)
    print(render_comparison(rows, title="headline: paper vs measured"))
    _finish_trace(args, obs)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    md_sections: list[str] = []
    results = {}
    obs = _obs_from_args(args)
    skip_functional = args.scale in (None, "none")
    names = [n for n in _FIGURES
             if not (skip_functional and n in ("fig7a", "fig7b"))]
    for name in names:
        print("=" * 72)
        results[name] = _FIGURES[name][1](args, obs)
        _render(name, results[name])
        if getattr(args, "json_dir", None):
            from pathlib import Path

            from repro.harness.export import save_figure_json

            out = Path(args.json_dir)
            out.mkdir(parents=True, exist_ok=True)
            save_figure_json(results[name], out / f"{name}.json")
    print("=" * 72)
    scale = None if args.scale in (None, "none") else args.scale
    rows = figures.headline_table(images=args.images,
                                  error_scale=scale, obs=obs,
                                  jobs=args.jobs)
    print(render_comparison(rows, title="headline: paper vs measured"))
    _finish_trace(args, obs)

    if getattr(args, "markdown", None):
        from pathlib import Path

        from repro.harness.tables import (
            render_comparison_markdown,
            render_figure_markdown,
        )

        md_sections = [render_figure_markdown(results[n])
                       for n in names]
        md = ("# Reproduction report\n\n"
              + render_comparison_markdown(rows) + "\n"
              + "\n".join(md_sections))
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
    if args.scale not in (None, "none"):
        results = results + verify_functional_claims(scale=args.scale)
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
    from repro.obs import ObsSession, utilisation_report

    if args.trace:
        _check_trace_path(args.trace, "--trace")
    obs = ObsSession()
    fw = _timing_framework(args.images, obs=obs)
    run = fw.run("synthetic", args.target, batch_size=args.batch)
    print(run.summary())
    print()
    print(utilisation_report(obs, run.wall_seconds))
    if args.trace:
        from repro.harness.export import save_trace_json

        path = save_trace_json(obs, args.trace)
        print(f"wrote trace {path} (open in https://ui.perfetto.dev)")
    return 0


def _chaos_point(point: tuple[int, int, int, float, object]):
    """Worker for one chaos-run victim: a fresh fault-tolerant run.

    Each plan gets its own framework and simulation environment, so
    the runs are independent and the seeded plans make them
    deterministic — fanning them across processes returns the same
    :class:`RunResult` values as the serial sweep.
    """
    images, devices, batch, timeout, plan = point
    from repro.harness.figures import paper_timing_graph
    from repro.ncsw import IntelVPU, NCSw, SyntheticSource

    fw = NCSw()
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
    from repro.harness.figures import paper_timing_graph
    from repro.ncsw import FaultPlan, IntelVPU, NCSw, SyntheticSource
    from repro.ncsw.faults import BUSY

    if not 0.0 <= args.kill_at <= 1.0:
        print(f"--kill-at must be in [0, 1], got {args.kill_at}")
        return 2
    graph = paper_timing_graph()

    def make_run(plan=None, timeout=None, obs=None):
        fw = NCSw(obs=obs)
        fw.add_source("synthetic", SyntheticSource(args.images))
        fw.add_target("vpu", IntelVPU(
            graph=graph, num_devices=args.devices, functional=False,
            fault_plan=plan, call_timeout=timeout))
        return fw.run("synthetic", "vpu", batch_size=args.batch)

    base = make_run()
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
    if args.jobs > 1 and obs is None:
        from repro.harness.experiment import parallel_map

        points = [(args.images, args.devices, args.batch, timeout,
                   plan) for _, plan in plans]
        runs = parallel_map(_chaos_point, points, jobs=args.jobs)
    else:
        runs = [make_run(plan=plan, timeout=timeout, obs=obs)
                for _, plan in plans]
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

    Exactly one side must be the VPU; the other a host tier.  Returns
    None (after printing the error) on a malformed token.
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
        print(f"split spec {token!r} must be <front>+<back>")
        return None
    (front, n_front), (back, n_back) = side(parts[0]), side(parts[1])
    if front is None or back is None or \
            (front == "vpu") == (back == "vpu"):
        print(f"split spec {token!r} needs exactly one vpu side and "
              "one of cpu/gpu (e.g. vpu4+cpu, cpu+vpu2)")
        return None
    return front, back, (n_front if n_front is not None else n_back)


def _serve_targets(spec: str, *, fault_plan=None, call_timeout=None):
    """Build named targets from a spec like ``vpu8`` or ``vpu4,cpu``.

    Tokens: ``cpu``, ``gpu``, ``vpuN`` (N sticks, 1-8), or a split
    placement ``<front>+<back>`` with exactly one VPU side
    (``vpu4+cpu``, ``cpu+vpu2``) — the latency-optimal cut of the
    paper network pipelined across the two tiers.  All targets run
    timing-only (non-functional) on the paper-scale GoogLeNet.
    A fault plan / call timeout applies to every VPU token.
    """
    from repro.harness.experiment import (
        paper_timing_graph,
        paper_timing_network,
    )
    from repro.ncsw import IntelCPU, IntelVPU, NvGPU

    targets = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "cpu":
            targets[token] = IntelCPU(paper_timing_network(),
                                      functional=False)
        elif token == "gpu":
            targets[token] = NvGPU(paper_timing_network(),
                                   functional=False)
        elif "+" in token:
            from repro.split import build_split_target
            parsed = _parse_split_token(token)
            if parsed is None:
                return None
            front, back, sticks = parsed
            targets[token] = build_split_target(
                paper_timing_network(), graph=paper_timing_graph(),
                front=front, back=back, num_sticks=sticks,
                functional=False)
        elif token.startswith("vpu") and token[3:].isdigit():
            targets[token] = IntelVPU(
                graph=paper_timing_graph(),
                num_devices=int(token[3:]), functional=False,
                fault_plan=fault_plan, call_timeout=call_timeout)
        else:
            print(f"--backends: unknown token {token!r} "
                  "(expected cpu, gpu, vpuN or front+back)")
            return None
    if not targets:
        print("--backends: no targets given")
        return None
    return targets


def _cmd_split_sweep(args: argparse.Namespace) -> int:
    """Map the split-placement design space of one device pairing."""
    from repro.split import (
        SplitPlanner,
        render_split_table,
        single_device_points,
    )

    parsed = _parse_split_token(args.devices)
    if parsed is None:
        return 1
    front, back, sticks = parsed
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
        print("--workload replay needs --replay PATH")
        return None
    return TraceWorkload.from_file(args.replay)


def _serve_server(args: argparse.Namespace, targets, obs=None):
    from repro.serve import InferenceServer

    server = InferenceServer(
        queue_depth=args.queue_depth,
        admission=args.admission,
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait / 1000.0,
        policy=args.route,
        slo_seconds=args.slo / 1000.0,
        deadline_seconds=(args.deadline / 1000.0
                          if args.deadline is not None else None),
        warmup=args.warmup,
        obs=obs)
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
    if workload is None:
        return 2
    if not 0.0 <= args.kill_at <= 1.0:
        print(f"--kill-at must be in [0, 1], got {args.kill_at}")
        return 2

    fault_plan = None
    call_timeout = None
    if args.kill_stick is not None:
        from repro.ncsw import FaultPlan

        targets = _serve_targets(args.backends)
        if targets is None:
            return 2
        base = _serve_server(args, targets).run(workload,
                                               args.requests)
        kill_time = (base.prepare_seconds
                     + args.kill_at * base.wall_seconds)
        fault_plan = FaultPlan.kill(args.kill_stick, kill_time,
                                    kind=args.kind)
        call_timeout = args.timeout
        print(f"baseline: {base.summary()}")
        print(f"chaos: kill stick {args.kill_stick} ({args.kind}) at "
              f"{kill_time * 1000:.2f} ms "
              f"(serving start + {args.kill_at:.0%} of wall)")
        print()

    targets = _serve_targets(args.backends, fault_plan=fault_plan,
                             call_timeout=call_timeout)
    if targets is None:
        return 2
    obs = _obs_from_args(args)
    result = _serve_server(args, targets, obs=obs).run(workload,
                                                       args.requests)
    alerts = policy = None
    if obs is not None:
        from repro.obs import default_policy, serve_alerts

        alerts = serve_alerts(result, session=obs)
        policy = default_policy(result.wall_seconds)
    print(render_slo_report(result, workload=workload.describe(),
                            alerts=alerts, policy=policy))
    if obs is not None:
        print()
    _serve_trace_extras(obs)
    _finish_trace(args, obs)
    return 0 if result.completed > 0 else 1


def _sweep_point(args: argparse.Namespace, token: str):
    """Worker for one serve-sweep configuration.

    Estimates the closed-loop capacity, then bisects the maximum
    sustainable arrival rate.  Every probe builds a fresh server and
    reseeds the workload, so configurations are independent of each
    other and the sweep fans across processes without changing any
    probe's outcome.  Returns ``(capacity, SweepResult)`` or ``None``
    for an invalid token.
    """
    from repro.ncsw import NCSw, SyntheticSource
    from repro.serve import PoissonWorkload, find_max_rate

    targets = _serve_targets(token)
    if targets is None:
        return None
    # Closed-loop capacity estimate: a short batch campaign.
    target = next(iter(targets.values()))
    fw = NCSw()
    fw.add_source("synthetic", SyntheticSource(64))
    fw.add_target(token, target)
    batch = max(1, target.preferred_batch_size)
    capacity = fw.run("synthetic", token,
                      batch_size=batch).throughput()

    def run_at(rate: float, token=token):
        srv = _serve_server(args, _serve_targets(token))
        return srv.run(PoissonWorkload(rate=rate, seed=args.seed),
                       args.requests)

    sweep = find_max_rate(run_at, slo_seconds=args.slo / 1000.0,
                          hi=2.0 * capacity, steps=args.steps,
                          label=token)
    return capacity, sweep


def _cmd_serve_sweep(args: argparse.Namespace) -> int:
    """Bisect the max sustainable arrival rate per configuration.

    Each ``--configs`` token becomes one single-backend configuration
    (e.g. ``vpu1,vpu2,vpu4,vpu8`` sweeps the paper's stick scaling in
    the serving regime).  The starting bracket is twice the measured
    closed-loop throughput of each configuration.  ``--jobs N`` fans
    the configurations across processes; output is collected and
    printed in configuration order either way.
    """
    from functools import partial

    from repro.harness.experiment import parallel_map
    from repro.serve import render_sweep_table

    tokens = [t.strip() for t in args.configs.split(",") if t.strip()]
    if not tokens:
        print("--configs: no configurations given")
        return 2
    outcomes = parallel_map(partial(_sweep_point, args), tokens,
                            jobs=args.jobs)
    if any(o is None for o in outcomes):
        return 2
    results = []
    for capacity, sweep in outcomes:
        print(f"{sweep.summary()} "
              f"(closed-loop capacity {capacity:.1f} img/s)")
        results.append(sweep)
    print()
    print(render_sweep_table(results))
    return 0


def _flow_coordinator(args: argparse.Namespace, wf, obs=None):
    """A FlowCoordinator wired from the workflow-* CLI flags."""
    from repro.flow import FlowCoordinator

    return FlowCoordinator(
        wf,
        seed=args.seed,
        queue_depth=args.queue_depth,
        admission=args.admission,
        max_wait_s=args.max_wait / 1000.0,
        slo_seconds=args.slo / 1000.0,
        deadline_seconds=(args.deadline / 1000.0
                          if args.deadline is not None else None),
        warmup=args.warmup,
        obs=obs)


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
        print(f"workflow-run: {exc}")
        return 2
    print(wf.describe())
    print()

    obs = _obs_from_args(args)
    workload = PoissonWorkload(rate=args.rate, seed=args.seed)
    result = _flow_coordinator(args, wf, obs=obs).run(
        workload, args.requests)
    print(render_workflow_report(result,
                                 workload=workload.describe()))
    if obs is not None:
        print()
    _serve_trace_extras(obs)
    _finish_trace(args, obs)
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

    if args.smoke:
        args.requests = min(args.requests, 30)
        if args.rates is None:
            args.rates = "20,40"
        args.devices = min(args.devices, 2)
    if args.rates is None:
        args.rates = "20,40,80"
    try:
        rates = [float(t) for t in args.rates.split(",") if t.strip()]
    except ValueError:
        print(f"--rates: bad rate list {args.rates!r}")
        return 2
    if not rates:
        print("--rates: no rates given")
        return 2

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


def _cluster_targets(hosts: int, spec: str):
    """One fresh target per host from a spec like ``vpu2`` or
    ``vpu4,cpu``.

    Tokens cycle across the hosts, so ``--hosts 4 --host-backends
    vpu2,cpu`` alternates VPU and CPU hosts.  Every host gets its own
    target instance — cluster hosts share nothing but the simulated
    interconnect.
    """
    from repro.harness.experiment import (
        paper_timing_graph,
        paper_timing_network,
    )
    from repro.ncsw import IntelCPU, IntelVPU, NvGPU

    if hosts < 1:
        print(f"--hosts: need at least 1 host, got {hosts}")
        return None
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        print("--host-backends: no tokens given")
        return None
    targets = []
    for i in range(hosts):
        token = tokens[i % len(tokens)]
        if token == "cpu":
            targets.append(IntelCPU(paper_timing_network(),
                                    functional=False))
        elif token == "gpu":
            targets.append(NvGPU(paper_timing_network(),
                                 functional=False))
        elif token.startswith("vpu") and token[3:].isdigit():
            targets.append(IntelVPU(
                graph=paper_timing_graph(),
                num_devices=int(token[3:]), functional=False))
        else:
            print(f"--host-backends: unknown token {token!r} "
                  "(expected cpu, gpu or vpuN)")
            return None
    return targets


def _cluster_server(args: argparse.Namespace, targets, *,
                    host_faults=None, autoscaler=None,
                    initial_hosts=None, obs=None):
    from repro.cluster import ClusterServer

    return ClusterServer(
        targets,
        window=args.window,
        spill_threshold=args.spill_threshold,
        queue_depth=args.queue_depth,
        admission=args.admission,
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait / 1000.0,
        slo_seconds=args.slo / 1000.0,
        deadline_seconds=(args.deadline / 1000.0
                          if args.deadline is not None else None),
        warmup=args.warmup,
        host_faults=host_faults,
        autoscaler=autoscaler,
        initial_hosts=initial_hosts,
        obs=obs)


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

    if not 0.0 <= args.kill_at <= 1.0:
        print(f"--kill-at must be in [0, 1], got {args.kill_at}")
        return 2
    if (args.kill_host is not None
            and not 0 <= args.kill_host < args.hosts):
        print(f"--kill-host must be in [0, {args.hosts - 1}], "
              f"got {args.kill_host}")
        return 2
    workload = PoissonWorkload(rate=args.rate, seed=args.seed)

    host_faults = None
    if args.kill_host is not None:
        from repro.ncsw import FaultPlan

        targets = _cluster_targets(args.hosts, args.host_backends)
        if targets is None:
            return 2
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
    if targets is None:
        return 2
    obs = _obs_from_args(args)
    result = _cluster_server(args, targets, host_faults=host_faults,
                             obs=obs).run(workload, args.requests)
    alerts = policy = None
    if obs is not None:
        from repro.obs import default_policy, serve_alerts

        alerts = serve_alerts(result, session=obs)
        policy = default_policy(result.wall_seconds)
    print(render_cluster_report(result,
                                workload=workload.describe(),
                                alerts=alerts, policy=policy))
    if obs is not None:
        print()
    _serve_trace_extras(obs)
    _finish_trace(args, obs)
    return 0 if result.completed > 0 else 1


def _cluster_sweep_point(args: argparse.Namespace, hosts: int):
    """Worker for one cluster-sweep host count.

    The bracket is twice the summed closed-loop capacity of the host
    targets (each unique backend token measured once).  Every probe
    builds a fresh cluster and reseeds the workload, mirroring
    ``serve-sweep``'s independence contract, so host counts fan
    across processes without changing any probe's outcome.  Returns
    ``(capacity, SweepResult)`` or ``None`` for an invalid spec.
    """
    from repro.ncsw import NCSw, SyntheticSource
    from repro.serve import PoissonWorkload, find_max_rate

    tokens = [t.strip() for t in args.host_backends.split(",")
              if t.strip()]
    capacity = 0.0
    per_token: dict[str, float] = {}
    for i in range(hosts):
        token = tokens[i % len(tokens)] if tokens else ""
        if token not in per_token:
            single = _cluster_targets(1, token)
            if single is None:
                return None
            target = single[0]
            fw = NCSw()
            fw.add_source("synthetic", SyntheticSource(64))
            fw.add_target(token, target)
            batch = max(1, target.preferred_batch_size)
            per_token[token] = fw.run(
                "synthetic", token, batch_size=batch).throughput()
        capacity += per_token[token]

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
    from functools import partial

    from repro.harness.experiment import parallel_map
    from repro.serve import render_sweep_table

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
        print(f"--hosts: expected a comma list of host counts, "
              f"got {args.hosts!r}")
        return 2
    if not counts or any(n < 1 for n in counts):
        print(f"--hosts: host counts must be >= 1, got {args.hosts!r}")
        return 2
    outcomes = parallel_map(partial(_cluster_sweep_point, args),
                            counts, jobs=args.jobs)
    if any(o is None for o in outcomes):
        return 2
    results = []
    for capacity, sweep in outcomes:
        print(f"{sweep.summary()} "
              f"(closed-loop capacity {capacity:.1f} img/s)")
        results.append(sweep)
    print()
    print(render_sweep_table(results))
    return 0


def _host_closed_loop_rate(args: argparse.Namespace):
    """Closed-loop throughput of one host built from the first
    ``--host-backends`` token — the capacity unit the autoscale
    commands size the diurnal day and the predictive policy with."""
    from repro.ncsw import NCSw, SyntheticSource

    tokens = [t.strip() for t in args.host_backends.split(",")
              if t.strip()]
    if not tokens:
        print("--host-backends: no tokens given")
        return None
    single = _cluster_targets(1, tokens[0])
    if single is None:
        return None
    target = single[0]
    fw = NCSw()
    fw.add_source("synthetic", SyntheticSource(64))
    fw.add_target(tokens[0], target)
    batch = max(1, target.preferred_batch_size)
    rate = fw.run("synthetic", tokens[0],
                  batch_size=batch).throughput()
    return rate, batch


def _autoscale_setup(args: argparse.Namespace):
    """Shared autoscale-run/-sweep setup: the diurnal day trace plus
    the per-host capacity estimate.  Returns ``(workload, host_rate,
    floor_s)`` — the last is the per-request service-latency floor
    (one calibration batch) the fluid model attributes to every
    completion — or None for an invalid spec."""
    from repro.serve import DiurnalWorkload

    calibrated = _host_closed_loop_rate(args)
    if calibrated is None:
        return None
    host_rate, batch = calibrated
    peak = (args.peak_rate if args.peak_rate is not None
            else 2.5 * host_rate)
    workload = DiurnalWorkload(peak_rate=peak, period_s=args.period,
                               floor_frac=args.floor, seed=args.seed)
    return workload, host_rate, batch / host_rate


def _fluid_cluster(args: argparse.Namespace, workload,
                   host_rate: float, floor_s: float, *,
                   pool: int, autoscaler=None):
    """Build the hybrid fluid model mirroring the DES campaign args."""
    from repro.sim.fluid import FluidCluster

    return FluidCluster(
        workload, host_rate=host_rate, pool=pool,
        autoscaler=autoscaler,
        slo_seconds=args.slo / 1000.0,
        service_floor_s=floor_s,
        seed=args.seed)


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


def _cmd_autoscale_run(args: argparse.Namespace) -> int:
    """One elastic cluster run over a diurnal day trace.

    A pool of ``--pool`` host slots sits behind the frontend; the
    chosen policy (reactive by default) scales the live set against
    the modelled day.  Exits non-zero when any request was lost —
    elastic scaling must never drop work.
    """
    from repro.cluster import render_cluster_report

    if args.smoke:
        args.requests = min(args.requests, 120)
        args.pool = min(args.pool, 3)
    if args.pool < 1:
        print(f"--pool: need at least 1 slot, got {args.pool}")
        return 2
    setup = _autoscale_setup(args)
    if setup is None:
        return 2
    workload, host_rate, floor_s = setup
    if args.fluid or args.fluid_gate:
        return _autoscale_run_fluid(args, workload, host_rate,
                                    floor_s)
    autoscaler = _autoscaler_from_args(args, workload, host_rate,
                                       args.policy)
    targets = _cluster_targets(args.pool, args.host_backends)
    if targets is None:
        return 2
    obs = _obs_from_args(args)
    result = _cluster_server(args, targets, autoscaler=autoscaler,
                             obs=obs).run(workload, args.requests)
    alerts = policy = None
    if obs is not None:
        from repro.obs import default_policy, serve_alerts

        alerts = serve_alerts(result, session=obs)
        policy = default_policy(result.wall_seconds)
    print(f"policy: {autoscaler.policy.describe()} "
          f"(~{host_rate:.1f} req/s/host closed loop)")
    print()
    print(render_cluster_report(result,
                                workload=workload.describe(),
                                alerts=alerts, policy=policy))
    if obs is not None:
        print()
    _serve_trace_extras(obs)
    _finish_trace(args, obs)
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

    autoscaler = _autoscaler_from_args(args, workload, host_rate,
                                       args.policy)
    fluid = _fluid_cluster(args, workload, host_rate, floor_s,
                           pool=args.pool,
                           autoscaler=autoscaler).run(args.requests)
    print(f"policy: {autoscaler.policy.describe()} "
          f"(~{host_rate:.1f} req/s/host closed loop)")
    print(f"fluid: {fluid.summary()}")
    print(f"scale events: {len(fluid.scale_events)}")
    if not args.fluid_gate:
        return 0
    targets = _cluster_targets(args.pool, args.host_backends)
    if targets is None:
        return 2
    des_autoscaler = _autoscaler_from_args(args, workload, host_rate,
                                           args.policy)
    result = _cluster_server(
        args, targets,
        autoscaler=des_autoscaler).run(workload, args.requests)
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

    if args.smoke:
        args.requests = min(args.requests, 120)
        args.pool = min(args.pool, 3)
    if args.pool < 1:
        print(f"--pool: need at least 1 slot, got {args.pool}")
        return 2
    setup = _autoscale_setup(args)
    if setup is None:
        return 2
    workload, host_rate, floor_s = setup
    print(f"calibrated: ~{host_rate:.1f} req/s/host closed-loop "
          f"capacity, day peak {workload.peak_rate:.4g} req/s")
    fluid = args.fluid
    points = []
    for n in range(1, args.pool + 1):
        if fluid:
            result = _fluid_cluster(args, workload, host_rate,
                                    floor_s, pool=n).run(
                                        args.requests)
        else:
            targets = _cluster_targets(n, args.host_backends)
            if targets is None:
                return 2
            result = _cluster_server(args, targets).run(workload,
                                                        args.requests)
        points.append(cost_point(f"fixed-{n}", result))
        print(f"fixed-{n}: {result.summary()}")
    for kind in ("reactive", "predictive"):
        autoscaler = _autoscaler_from_args(args, workload, host_rate,
                                           kind)
        if fluid:
            result = _fluid_cluster(
                args, workload, host_rate, floor_s, pool=args.pool,
                autoscaler=autoscaler).run(args.requests)
        else:
            targets = _cluster_targets(args.pool, args.host_backends)
            if targets is None:
                return 2
            result = _cluster_server(
                args, targets,
                autoscaler=autoscaler).run(workload, args.requests)
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
        print(f"trace-analyze: {exc}")
        return 2
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


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--images", type=int, default=160,
                        help="timing images per measurement")
    common.add_argument("--scale", default="default",
                        help="functional scale: smoke|default|paper")
    common.add_argument("--json-dir", default=None,
                        help="also save each figure as JSON here")
    common.add_argument("--trace", default=None, metavar="PATH",
                        help="record a Perfetto trace_event JSON here "
                             "and print the utilisation report")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan independent runs across N processes "
                             "(results identical to --jobs 1; tracing "
                             "and jitter keep the run serial)")

    for name, (desc, _) in _FIGURES.items():
        sub.add_parser(name, help=desc, parents=[common])
    sub.add_parser("headline", help="headline paper-vs-measured table",
                   parents=[common])
    report = sub.add_parser("report", help="regenerate everything",
                            parents=[common])
    sub.add_parser("audit", help="verify every quantitative claim",
                   parents=[common])
    report.add_argument("--markdown", default=None,
                        help="write the full report as markdown here")

    profile = sub.add_parser("profile",
                             help="per-layer VPU timing report")
    profile.add_argument("--model", default="googlenet-mini")
    profile.add_argument("--shaves", type=int, default=12)
    profile.add_argument("--top", type=int, default=None)

    profile_run = sub.add_parser(
        "profile-run",
        help="one instrumented run + per-device utilisation report")
    profile_run.add_argument(
        "--target", default="vpu8",
        choices=["cpu", "gpu", "vpu1", "vpu2", "vpu4", "vpu8"])
    profile_run.add_argument("--images", type=int, default=160)
    profile_run.add_argument("--batch", type=int, default=8)
    profile_run.add_argument("--trace", default=None, metavar="PATH",
                             help="also write the Perfetto trace here")

    chaos = sub.add_parser(
        "chaos-run",
        help="seeded fault-injection sweep over the multi-VPU rig")
    chaos.add_argument("--devices", type=int, default=8,
                       help="NCS sticks to drive (1-8)")
    chaos.add_argument("--images", type=int, default=160)
    chaos.add_argument("--batch", type=int, default=8)
    chaos.add_argument("--kill-stick", type=int, default=None,
                       metavar="K",
                       help="fail only stick K (default: sweep all)")
    chaos.add_argument("--kill-at", type=float, default=0.5,
                       metavar="FRAC",
                       help="fault time as a fraction of the healthy "
                            "run's wall time (default 0.5)")
    chaos.add_argument("--kind", default="death",
                       choices=["death", "hang", "thermal", "busy"])
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed for --random-plans schedules")
    chaos.add_argument("--random-plans", type=int, default=0,
                       metavar="N",
                       help="run N seeded random schedules instead of "
                            "the per-stick sweep")
    chaos.add_argument("--timeout", type=float, default=None,
                       help="per-call NCAPI deadline in seconds "
                            "(default: 4x the healthy max latency)")
    chaos.add_argument("--trace", default=None, metavar="PATH",
                       help="record a Perfetto trace of the chaos "
                            "runs here")
    chaos.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan per-victim runs across N processes "
                            "(results identical to --jobs 1)")

    serve_common = argparse.ArgumentParser(add_help=False)
    serve_common.add_argument(
        "--requests", type=int, default=400,
        help="requests per run (default 400)")
    serve_common.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (same seed -> byte-identical run)")
    serve_common.add_argument(
        "--slo", type=float, default=500.0, metavar="MS",
        help="p99 end-to-end latency objective in ms (default 500; "
             "one paper-scale inference is ~100 ms and a loaded "
             "pipeline holds about two batches in flight)")
    serve_common.add_argument(
        "--deadline", type=float, default=None, metavar="MS",
        help="per-request queue deadline in ms (default: none)")
    serve_common.add_argument(
        "--queue-depth", type=int, default=64,
        help="admission queue bound (default 64)")
    serve_common.add_argument(
        "--admission", default=REJECT_NEWEST, choices=POLICIES,
        help="overload policy at the admission queue")
    serve_common.add_argument(
        "--route", default="round-robin",
        choices=["round-robin", "least-outstanding", "latency-ewma"],
        help="backend routing policy")
    serve_common.add_argument(
        "--max-batch", type=int, default=None,
        help="batch size cap (default: backend preference)")
    serve_common.add_argument(
        "--max-wait", type=float, default=2.0, metavar="MS",
        help="dynamic batcher window in ms (default 2)")
    serve_common.add_argument(
        "--warmup", type=int, default=0,
        help="leading completions excluded from latency stats")

    serve_run = sub.add_parser(
        "serve-run", parents=[serve_common],
        help="one open-loop serving run with a full SLO report")
    serve_run.add_argument(
        "--backends", default="vpu8",
        help="comma list of cpu / gpu / vpuN targets (default vpu8)")
    serve_run.add_argument(
        "--workload", default="poisson",
        choices=["poisson", "bursty", "diurnal", "replay"])
    serve_run.add_argument(
        "--rate", type=float, default=50.0,
        help="arrival rate in req/s: poisson rate, bursty base rate, "
             "diurnal peak rate (default 50)")
    serve_run.add_argument(
        "--burst-rate", type=float, default=None,
        help="bursty peak rate (default: 4x --rate)")
    serve_run.add_argument(
        "--period", type=float, default=10.0,
        help="diurnal period in seconds (default 10)")
    serve_run.add_argument(
        "--replay", default=None, metavar="PATH",
        help="arrival-offsets file for --workload replay")
    serve_run.add_argument(
        "--kill-stick", type=int, default=None, metavar="K",
        help="fail VPU stick K mid-run (runs a baseline first)")
    serve_run.add_argument(
        "--kill-at", type=float, default=0.5, metavar="FRAC",
        help="fault time as a fraction of the baseline's serving "
             "wall time (default 0.5)")
    serve_run.add_argument(
        "--kind", default="death",
        choices=["death", "hang", "thermal", "busy"])
    serve_run.add_argument(
        "--timeout", type=float, default=0.5,
        help="per-call NCAPI deadline in s for chaos runs "
             "(default 0.5)")
    serve_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a Perfetto trace + utilisation report "
             "(includes per-request flow events and a waterfall)")
    serve_run.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="dump the metric/trace events as JSONL for offline "
             "trace-analyze")

    serve_sweep = sub.add_parser(
        "serve-sweep", parents=[serve_common],
        help="bisect the max sustainable arrival rate per config")
    serve_sweep.add_argument(
        "--configs", default="vpu1,vpu2,vpu4,vpu8",
        help="comma list of configurations to sweep "
             "(default vpu1,vpu2,vpu4,vpu8)")
    serve_sweep.add_argument(
        "--steps", type=int, default=8,
        help="bisection steps per configuration (default 8)")
    serve_sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan configurations across N processes "
             "(results identical to --jobs 1)")
    serve_sweep.set_defaults(requests=200)

    split_sweep = sub.add_parser(
        "split-sweep",
        help="map the latency/throughput/energy frontier of every "
             "two-tier layer cut")
    split_sweep.add_argument(
        "--devices", default="vpu1+cpu",
        help="placement pair <front>+<back> with exactly one vpu "
             "side (default vpu1+cpu)")
    split_sweep.add_argument(
        "--objective", default="latency",
        choices=["latency", "throughput", "energy"],
        help="objective of the best-cut line (default latency)")
    split_sweep.add_argument(
        "--smoke", action="store_true",
        help="CI-sized model (googlenet-micro) instead of the "
             "paper network")

    cluster_common = argparse.ArgumentParser(add_help=False)
    cluster_common.add_argument(
        "--host-backends", default="vpu2", metavar="SPEC",
        help="comma list of per-host targets, cycled across hosts "
             "(cpu / gpu / vpuN tokens; default vpu2)")
    cluster_common.add_argument(
        "--requests", type=int, default=400,
        help="requests per run (default 400)")
    cluster_common.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (same seed -> byte-identical run)")
    cluster_common.add_argument(
        "--slo", type=float, default=500.0, metavar="MS",
        help="p99 end-to-end latency objective in ms (default 500)")
    cluster_common.add_argument(
        "--deadline", type=float, default=None, metavar="MS",
        help="per-request queue deadline in ms (default: none)")
    cluster_common.add_argument(
        "--queue-depth", type=int, default=64,
        help="per-host admission queue bound (default 64)")
    cluster_common.add_argument(
        "--admission", default=REJECT_NEWEST, choices=POLICIES,
        help="per-host overload policy")
    cluster_common.add_argument(
        "--max-batch", type=int, default=None,
        help="batch size cap (default: backend preference)")
    cluster_common.add_argument(
        "--max-wait", type=float, default=2.0, metavar="MS",
        help="dynamic batcher window in ms (default 2)")
    cluster_common.add_argument(
        "--warmup", type=int, default=0,
        help="leading completions excluded from latency stats")
    cluster_common.add_argument(
        "--window", type=int, default=8,
        help="per-shard stream window (default 8)")
    cluster_common.add_argument(
        "--spill-threshold", type=int, default=None, metavar="N",
        help="outstanding requests before a shard spills to the "
             "least-loaded host (default: window + queue depth)")

    cluster_run = sub.add_parser(
        "cluster-run", parents=[cluster_common],
        help="one sharded multi-host serving run with roll-up report")
    cluster_run.add_argument(
        "--hosts", type=int, default=4,
        help="number of serving hosts / ranks (default 4)")
    cluster_run.add_argument(
        "--rate", type=float, default=100.0,
        help="Poisson arrival rate in req/s (default 100)")
    cluster_run.add_argument(
        "--kill-host", type=int, default=None, metavar="K",
        help="kill whole host K mid-run (runs a baseline first)")
    cluster_run.add_argument(
        "--kill-at", type=float, default=0.5, metavar="FRAC",
        help="kill time as a fraction of the baseline's serving "
             "wall time (default 0.5)")
    cluster_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a Perfetto trace (one process group per rank) "
             "+ utilisation report")
    cluster_run.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="dump the metric/trace events as JSONL for offline "
             "trace-analyze")

    cluster_sweep = sub.add_parser(
        "cluster-sweep", parents=[cluster_common],
        help="max sustainable arrival rate per cluster size")
    cluster_sweep.add_argument(
        "--hosts", default=None, metavar="LIST",
        help="comma list of host counts to sweep "
             "(default 1,2,4,8; 1,2 with --smoke)")
    cluster_sweep.add_argument(
        "--steps", type=int, default=8,
        help="bisection steps per host count (default 8)")
    cluster_sweep.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweep (96 requests, 3 steps, hosts 1,2)")
    cluster_sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan host counts across N processes "
             "(results identical to --jobs 1)")
    cluster_sweep.set_defaults(requests=200)

    autoscale_common = argparse.ArgumentParser(add_help=False)
    autoscale_common.add_argument(
        "--pool", type=int, default=4, metavar="N",
        help="host slots the frontend may scale across (default 4)")
    autoscale_common.add_argument(
        "--peak-rate", type=float, default=None, metavar="RPS",
        help="diurnal peak arrival rate (default: 2.5x one host's "
             "closed-loop throughput)")
    autoscale_common.add_argument(
        "--period", type=float, default=2.0, metavar="S",
        help="diurnal period — one traffic day — in seconds "
             "(default 2)")
    autoscale_common.add_argument(
        "--floor", type=float, default=0.1, metavar="FRAC",
        help="overnight trough as a fraction of peak (default 0.1)")
    autoscale_common.add_argument(
        "--min-hosts", type=int, default=1,
        help="autoscaler floor (default 1)")
    autoscale_common.add_argument(
        "--max-hosts", type=int, default=None,
        help="autoscaler ceiling (default: the pool size)")
    autoscale_common.add_argument(
        "--interval", type=float, default=20.0, metavar="MS",
        help="autoscaler tick interval in ms (default 20)")
    autoscale_common.add_argument(
        "--cooldown", type=float, default=50.0, metavar="MS",
        help="minimum gap between scale actions in ms (default 50)")
    autoscale_common.add_argument(
        "--warm-pool", type=int, default=1, metavar="N",
        help="idle slots kept pre-initialised (default 1)")
    autoscale_common.add_argument(
        "--high-water", type=float, default=4.0, metavar="N",
        help="reactive: per-host outstanding before scale-out "
             "(default 4)")
    autoscale_common.add_argument(
        "--low-water", type=float, default=1.0, metavar="N",
        help="reactive: per-host outstanding after removal that "
             "permits scale-in (default 1)")
    autoscale_common.add_argument(
        "--lead", type=float, default=100.0, metavar="MS",
        help="predictive: pre-warm lead time in ms (default 100)")
    autoscale_common.add_argument(
        "--utilization", type=float, default=0.7, metavar="FRAC",
        help="predictive: target per-host utilisation (default 0.7)")
    autoscale_common.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (120 requests, pool of 3)")
    autoscale_common.add_argument(
        "--fluid", action="store_true",
        help="hybrid fluid/DES model instead of per-request DES "
             "(million-user days in milliseconds; see DESIGN.md "
             "section 16 for the validity envelope)")

    autoscale_run = sub.add_parser(
        "autoscale-run", parents=[cluster_common, autoscale_common],
        help="one elastic cluster run over a diurnal day trace")
    autoscale_run.add_argument(
        "--policy", default="reactive",
        choices=["reactive", "predictive"],
        help="scale policy (default reactive)")
    autoscale_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a Perfetto trace (one process group per rank) "
             "+ utilisation report")
    autoscale_run.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="dump the metric/trace events as JSONL for offline "
             "trace-analyze")
    autoscale_run.add_argument(
        "--fluid-gate", action="store_true",
        help="run BOTH the fluid model and the pure-DES cluster, "
             "print the equivalence gate, exit non-zero on "
             "disagreement")

    autoscale_sweep = sub.add_parser(
        "autoscale-sweep",
        parents=[cluster_common, autoscale_common],
        help="cost-vs-SLO frontier: elastic policies vs fixed-N")
    autoscale_sweep.set_defaults(requests=300)

    flow_common = argparse.ArgumentParser(add_help=False)
    flow_common.add_argument(
        "--scale", default="micro", choices=["micro", "mini"],
        help="workflow model scale (default micro)")
    flow_common.add_argument(
        "--devices", type=int, default=4,
        help="NCS sticks behind each VPU stage (default 4)")
    flow_common.add_argument(
        "--requests", type=int, default=120,
        help="workflow requests per run (default 120)")
    flow_common.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (same seed -> byte-identical run)")
    flow_common.add_argument(
        "--slo", type=float, default=800.0, metavar="MS",
        help="workflow p99 end-to-end objective in ms (default 800: "
             "a cascade holds two serving stages plus a join)")
    flow_common.add_argument(
        "--deadline", type=float, default=None, metavar="MS",
        help="per-workflow deadline in ms, shared by every stage the "
             "request touches (default: none)")
    flow_common.add_argument(
        "--queue-depth", type=int, default=64,
        help="per-stage admission queue bound (default 64)")
    flow_common.add_argument(
        "--admission", default=REJECT_NEWEST, choices=POLICIES,
        help="per-stage overload policy")
    flow_common.add_argument(
        "--max-wait", type=float, default=2.0, metavar="MS",
        help="per-stage dynamic batcher window in ms (default 2)")
    flow_common.add_argument(
        "--warmup", type=int, default=0,
        help="leading completed workflows excluded from latency "
             "stats")
    flow_common.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (40 workflows, 2 sticks)")

    workflow_run = sub.add_parser(
        "workflow-run", parents=[flow_common],
        help="one multi-model workflow DAG run (cascade / ensemble / "
             "escalate) with per-stage + workflow SLO report")
    workflow_run.add_argument(
        "--workflow", default="cascade",
        choices=["cascade", "ensemble", "escalate", "monolithic"],
        help="built-in workflow to run (default cascade)")
    workflow_run.add_argument(
        "--rate", type=float, default=40.0,
        help="Poisson arrival rate in workflows/s (default 40)")
    workflow_run.add_argument(
        "--stage-slo", type=float, default=None, metavar="MS",
        help="per-stage SLO in ms for the cascade's model stages "
             "(default: none)")
    workflow_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a Perfetto trace + utilisation report (the "
             "waterfall spans every stage of the cascade)")
    workflow_run.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="dump the metric/trace events as JSONL for offline "
             "trace-analyze")

    workflow_sweep = sub.add_parser(
        "workflow-sweep", parents=[flow_common],
        help="cascade vs monolithic classify at matched offered "
             "rates")
    workflow_sweep.add_argument(
        "--rates", default=None, metavar="LIST",
        help="comma list of offered rates in workflows/s "
             "(default 20,40,80; 20,40 with --smoke)")
    workflow_sweep.set_defaults(requests=80)

    trace_analyze = sub.add_parser(
        "trace-analyze",
        help="analyze a recorded metrics JSONL dump offline")
    trace_analyze.add_argument(
        "path", metavar="PATH",
        help="metrics JSONL file from serve-run/cluster-run "
             "--metrics")
    trace_analyze.add_argument(
        "--window", type=float, default=50.0, metavar="MS",
        help="timeline aggregation window in ms (default 50)")
    trace_analyze.add_argument(
        "--slo", type=float, default=500.0, metavar="MS",
        help="SLO threshold in ms for burn-rate analysis "
             "(default 500)")
    trace_analyze.add_argument(
        "--waterfalls", type=int, default=1, metavar="N",
        help="completed request waterfalls to print (default 1)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command in _FIGURES:
        return _cmd_figure(args.command, args)
    if args.command == "headline":
        return _cmd_headline(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "profile-run":
        return _cmd_profile_run(args)
    if args.command == "chaos-run":
        return _cmd_chaos_run(args)
    if args.command == "serve-run":
        return _cmd_serve_run(args)
    if args.command == "serve-sweep":
        return _cmd_serve_sweep(args)
    if args.command == "split-sweep":
        return _cmd_split_sweep(args)
    if args.command == "cluster-run":
        return _cmd_cluster_run(args)
    if args.command == "cluster-sweep":
        return _cmd_cluster_sweep(args)
    if args.command == "autoscale-run":
        return _cmd_autoscale_run(args)
    if args.command == "autoscale-sweep":
        return _cmd_autoscale_sweep(args)
    if args.command == "workflow-run":
        return _cmd_workflow_run(args)
    if args.command == "workflow-sweep":
        return _cmd_workflow_sweep(args)
    if args.command == "trace-analyze":
        return _cmd_trace_analyze(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
