"""repro.obs — end-to-end tracing and metrics for the simulation.

The observability layer the paper's analysis implicitly relied on:
span-based tracing stamped with simulated time (:mod:`tracer`), a
metrics registry with counters / gauges / percentile histograms
(:mod:`metrics`), the :class:`ObsSession` bundle that threads through
the whole stack (:mod:`session`), per-request causal traces with
waterfalls and critical paths (:mod:`reqtrace`), windowed time-series
aggregation and a JSONL metrics dump/loader (:mod:`timeline`),
SLO burn-rate and anomaly detection (:mod:`alerts`), a Chrome/Perfetto
``trace_event`` exporter with request flow events (:mod:`perfetto`)
and a per-device utilisation report (:mod:`report`).

Typical use::

    from repro.obs import ObsSession, utilisation_report, \
        write_chrome_trace
    from repro.ncsw import NCSw

    session = ObsSession()
    fw = NCSw(obs=session)
    ...
    run = fw.run("synthetic", "vpu8", batch_size=8)
    print(utilisation_report(session, run.wall_seconds))
    write_chrome_trace(session, "trace.json")  # open in ui.perfetto.dev

Everything is zero-cost when no session is attached: instrumentation
points guard on ``env.obs is None`` and benchmark numbers are
byte-identical with tracing off.
"""

from repro.obs.tracer import Span, Tracer
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    TracerClock,
)
from repro.obs.session import ObsSession
from repro.obs.reqtrace import (
    Hop,
    RequestTrace,
    RequestTracer,
    TraceContext,
    render_waterfall,
)
from repro.obs.timeline import (
    TimelineRecorder,
    load_metrics_jsonl,
    render_timeline,
    timeline_rows,
    write_metrics_jsonl,
)
from repro.obs.alerts import (
    Alert,
    BurnRatePolicy,
    burn_rate_alerts,
    dead_rank_alerts,
    default_policy,
    flapping_alerts,
    outcomes_from_traces,
    queue_slope_alerts,
    render_alerts,
    request_outcomes,
    serve_alerts,
)
from repro.obs.perfetto import to_chrome_trace, write_chrome_trace
from repro.obs.report import (
    dead_ranks,
    device_failures,
    device_utilisation,
    link_occupancy,
    rank_activity,
    serving_activity,
    utilisation_report,
)

__all__ = [
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "TracerClock",
    "ObsSession",
    "TraceContext",
    "Hop",
    "RequestTrace",
    "RequestTracer",
    "render_waterfall",
    "TimelineRecorder",
    "timeline_rows",
    "render_timeline",
    "write_metrics_jsonl",
    "load_metrics_jsonl",
    "Alert",
    "BurnRatePolicy",
    "default_policy",
    "request_outcomes",
    "outcomes_from_traces",
    "burn_rate_alerts",
    "queue_slope_alerts",
    "dead_rank_alerts",
    "flapping_alerts",
    "serve_alerts",
    "render_alerts",
    "to_chrome_trace",
    "write_chrome_trace",
    "dead_ranks",
    "device_failures",
    "device_utilisation",
    "link_occupancy",
    "rank_activity",
    "serving_activity",
    "utilisation_report",
]
