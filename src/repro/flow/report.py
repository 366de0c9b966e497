"""Deterministic text report for one workflow run.

A pure function of the :class:`~repro.flow.result.WorkflowResult`:
same result, same bytes.  The report is the CLI's contract for the
byte-identical obs-off-vs-on check, so nothing here may depend on
whether observability was attached.
"""

from __future__ import annotations

from repro.flow.result import WorkflowResult


def render_workflow_report(result: WorkflowResult,
                           workload: str = "") -> str:
    """Render the workflow-level and per-stage accounting."""
    lines = [f"== workflow report: {result.workflow} =="]
    if workload:
        lines.append(f"workload        : {workload}")
    lines.append(f"offered         : {result.offered} workflow "
                 "requests")
    lines.append(f"completed       : {result.completed}")
    lines.append(f"shed            : {result.shed}")
    lines.append(f"rejected        : {result.rejected}")
    lines.append(f"timed out       : {result.timed_out}")
    lines.append(f"abandoned       : {result.abandoned}")
    lines.append(f"wall time       : {result.wall_seconds:.3f} s "
                 f"(prepare {result.prepare_seconds:.3f} s)")
    if result.warmup:
        lines.append(f"warmup          : first {result.warmup} "
                     "completed excluded from latency stats")

    latencies = result.e2e_latencies()
    if latencies:
        lines.append("workflow latency (e2e):")
        lines.append(
            f"  p50 {result.p50 * 1000:9.3f} ms   "
            f"p95 {result.p95 * 1000:9.3f} ms   "
            f"p99 {result.p99 * 1000:9.3f} ms   "
            f"mean {result.mean_latency * 1000:9.3f} ms")
    else:
        lines.append("workflow latency (e2e): no completed workflows")

    if result.stages:
        lines.append("per-stage serving:")
        lines.append(f"  {'stage':<14} {'offered':>7} {'done':>6} "
                     f"{'lost':>5} {'p50 ms':>9} {'p99 ms':>9} "
                     f"{'batch':>6}  stage SLO")
        for stage in result.stages:
            sr = stage.result
            lost = sr.offered - sr.completed
            try:
                p50 = f"{sr.p50 * 1000:9.3f}"
                p99 = f"{sr.p99 * 1000:9.3f}"
            except ValueError:
                p50 = f"{'-':>9}"
                p99 = f"{'-':>9}"
            sizes = [r.batch_size for r in sr.completed_requests()
                     if r.batch_size is not None]
            mean_batch = (f"{sum(sizes) / len(sizes):6.2f}"
                          if sizes else f"{'-':>6}")
            if sr.slo_seconds is None:
                slo = "-"
            else:
                slo = (f"{sr.slo_attainment:.1%} within "
                       f"{sr.slo_seconds * 1000:.0f} ms")
            lines.append(f"  {stage.name:<14} {sr.offered:>7} "
                         f"{sr.completed:>6} {lost:>5} {p50} {p99} "
                         f"{mean_batch}  {slo}")

    if result.fan_out:
        lines.append("fan-out accounting:")
        for acct in result.fan_out:
            lines.append(
                f"  {acct.step} .. {acct.join}: spawned "
                f"{acct.spawned} = joined {acct.joined} + abandoned "
                f"{acct.abandoned}")

    if result.slo_seconds is not None:
        verdict = "met" if result.slo_met else "MISSED"
        lines.append(
            f"workflow SLO    : p99 vs "
            f"{result.slo_seconds * 1000:.0f} ms -> {verdict} "
            f"(attainment {result.slo_attainment:.1%}, goodput "
            f"{result.goodput:.2f} wf/s)")
    lines.append(f"summary         : {result.summary()}")
    return "\n".join(lines)
