"""Plain-text SLO report for a serving run.

Deterministic rendering: the report is a pure function of the
:class:`~repro.serve.slo.ServeResult`, so two runs with the same seed
produce byte-identical reports — the property the serving tests (and
CI smoke) pin down.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.serve.slo import ServeResult


def _pcts(values: list[float]) -> Optional[tuple[float, float, float, float]]:
    """(p50, p95, p99, mean) in milliseconds, or None when empty."""
    if not values:
        return None
    arr = np.asarray(values)
    return (float(np.percentile(arr, 50)) * 1000,
            float(np.percentile(arr, 95)) * 1000,
            float(np.percentile(arr, 99)) * 1000,
            float(np.mean(arr)) * 1000)


def render_slo_report(result: ServeResult,
                      workload: str = "",
                      alerts=None, policy=None) -> str:
    """Render the full human-readable serving report.

    Pass ``alerts`` (a list from
    :func:`repro.obs.alerts.serve_alerts`) to append an SLO-alert
    section; the default rendering is unchanged so existing golden
    outputs stay byte-identical.
    """
    lines = ["serve report"]
    if workload:
        lines.append(f"  workload       : {workload}")
    if result.wall_seconds > 0:
        lines.append(
            f"  offered        : {result.offered} requests over "
            f"{result.wall_seconds:.3f} s "
            f"({result.offered / result.wall_seconds:.1f} req/s "
            "offered)")
    else:
        lines.append(f"  offered        : {result.offered} requests")
    if result.prepare_seconds > 0:
        lines.append(
            f"  prepare        : {result.prepare_seconds * 1000:.1f} "
            "ms before serving started")
    if result.offered:
        lines.append(
            f"  completed      : {result.completed} "
            f"({result.completed / result.offered:.1%})")
    else:
        lines.append("  completed      : 0")
    dropped = [("shed", result.shed), ("rejected", result.rejected),
               ("timed out", result.timed_out),
               ("abandoned", result.abandoned)]
    for label, count in dropped:
        if count:
            lines.append(f"  {label:<15}: {count} "
                         f"({count / result.offered:.1%})")
    if result.warmup:
        lines.append(f"  warmup         : first {result.warmup} "
                     "completions excluded from latency stats")
    if result.failures:
        lines.append(f"  device failures: "
                     + ", ".join(sorted({f.device
                                         for f in result.failures})))

    stages = [("e2e", result.e2e_latencies()),
              ("queue wait", result.stage_latencies("queue_wait")),
              ("batch wait", result.stage_latencies("batch_wait")),
              ("service", result.stage_latencies("service"))]
    if any(values for _, values in stages):
        lines.append("")
        lines.append(f"  {'latency':<12} {'p50 ms':>9} {'p95 ms':>9} "
                     f"{'p99 ms':>9} {'mean ms':>9}")
        for label, values in stages:
            pct = _pcts(values)
            if pct is None:
                continue
            p50, p95, p99, mean = pct
            lines.append(f"  {label:<12} {p50:>9.2f} {p95:>9.2f} "
                         f"{p99:>9.2f} {mean:>9.2f}")

    if result.slo_seconds is not None:
        lines.append("")
        try:
            # ``slo_met`` also fails a run that lost requests, as the
            # cluster and workflow reports already say.
            verdict = "MET" if result.slo_met else "MISSED"
            lines.append(
                f"  SLO p99 <= {result.slo_seconds * 1000:.0f} ms : "
                f"{verdict} (p99 {result.p99 * 1000:.2f} ms, "
                f"attainment {result.slo_attainment:.1%})")
        except ValueError:
            lines.append(
                f"  SLO p99 <= {result.slo_seconds * 1000:.0f} ms : "
                "UNDEFINED (no completed requests)")
        if result.wall_seconds > 0:
            lines.append(
                f"  goodput        : {result.goodput:.1f} req/s "
                f"within SLO ({result.throughput:.1f} req/s "
                "completed)")

    backends = result.per_backend_counts()
    if backends:
        lines.append("")
        lines.append(f"  {'backend':<12} {'served':>7} {'share':>7}")
        for name in sorted(backends):
            count = backends[name]
            lines.append(
                f"  {name:<12} {count:>7} "
                f"{count / result.completed:>7.1%}")
    if alerts is not None:
        from repro.obs.alerts import render_alerts
        lines.append("")
        lines.append(render_alerts(alerts, policy=policy))
    return "\n".join(lines)
