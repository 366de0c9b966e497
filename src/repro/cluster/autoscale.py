"""Elastic autoscaling for the sharded serving cluster.

The paper's economics argument — perf/W on cheap VPU sticks beats
CPU/GPU hosts — only pays off at cluster scale if capacity tracks
load: the diurnal/MMPP workload generators model traffic swinging by
orders of magnitude, while a fixed host count either overprovisions
the trough or melts at the peak.  This module closes that loop.

An :class:`Autoscaler` ticks on the simulated clock next to a running
:class:`~repro.cluster.server.ClusterServer`, reads an
:class:`AutoscaleSignal` (live/booting hosts, frontend-ledger
outstanding counts, a rolling p99 over recent completions), asks its
policy for a desired host count, and issues at most one scale action
per tick — scale-out activates a pool slot (warm first, cold-boot
otherwise), scale-in drains a live host through the frontend's
lame-duck path.  The consistent-hash ring's minimal-remap property
(:mod:`repro.cluster.hashring`) is what makes both cheap: adding a
host steals only the keys that move *to* it, draining one re-maps
only the keys it owned.

Two policies ship:

* :class:`ReactivePolicy` — queue-depth (ledger outstanding per host)
  and rolling-p99-vs-SLO thresholds, with hysteresis (distinct
  high/low watermarks) on top of the autoscaler's cooldown so the
  cluster does not flap;
* :class:`PredictivePolicy` — diurnal-phase-aware: queries the
  workload's :meth:`~repro.serve.workload.DiurnalWorkload.diurnal_phase`
  a lead time ahead and provisions for the predicted arrival rate, so
  ranks pre-warm *before* the modelled peak instead of chasing it.

Scripted scale events (:class:`ScalePlan`) drive the same server
surface without a policy — the deterministic harness the
exactly-once property tests randomise over.

Everything here is a pure function of simulated state: same seed,
same scale events, byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator, Iterable, Optional

from repro.errors import FrameworkError
from repro.sim.monitor import RollingP99

#: Scale-event actions.
SCALE_OUT = "scale-out"
SCALE_IN = "scale-in"


@dataclass(frozen=True)
class ScaleEvent:
    """One committed scale action at the cluster frontend."""

    time: float      #: sim-clock time the action was taken
    action: str      #: :data:`SCALE_OUT` or :data:`SCALE_IN`
    host: str        #: host (generation) activated or drained
    reason: str      #: policy / plan rationale, for the report
    live_after: int  #: routable hosts immediately after the action


@dataclass(frozen=True)
class AutoscaleSignal:
    """What a policy sees at one autoscaler tick.

    Everything is derived from frontend state alone (ownership
    ledger, slot table, rolling completion latencies) — never from
    the observability session, so policy decisions are byte-identical
    with tracing on or off.
    """

    time: float              #: absolute sim-clock time
    since_epoch: float       #: seconds since serving started
    live: int                #: routable hosts (in the ring)
    booting: int             #: scale-outs still preparing
    addable: int             #: pool slots still activatable
    total_outstanding: int   #: ledger-owned requests across live hosts
    rolling_p99: Optional[float]  #: p99 over recent completions, or None
    slo_seconds: Optional[float]  #: the run's SLO, or None

    @property
    def capacity(self) -> int:
        """Hosts serving or about to serve (live + booting)."""
        return self.live + self.booting


class AutoscalePolicy:
    """Abstract desired-host-count policy."""

    name = "policy"

    def desired(self, signal: AutoscaleSignal) -> int:
        """Desired host count given *signal* (the autoscaler clamps
        to ``[min_hosts, capacity + addable]``)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line description for report headers."""
        return self.name


class ReactivePolicy(AutoscalePolicy):
    """Queue-depth / rolling-p99 thresholds with hysteresis.

    Scale **out** when either the per-host outstanding backlog
    exceeds ``high_water`` or the rolling p99 eats more than
    ``p99_headroom`` of the SLO.  Scale **in** only when the load
    would still sit at or under ``low_water`` per host *after*
    removing one — ``low_water < high_water`` is the hysteresis band
    that, together with the autoscaler's cooldown, prevents flapping.
    """

    name = "reactive"

    def __init__(self, high_water: float = 4.0,
                 low_water: float = 1.0,
                 p99_headroom: float = 0.8) -> None:
        if high_water <= 0:
            raise FrameworkError(
                f"high_water must be positive, got {high_water}")
        if not 0 <= low_water < high_water:
            raise FrameworkError(
                f"need 0 <= low_water < high_water for hysteresis, "
                f"got low={low_water}, high={high_water}")
        if not 0.0 < p99_headroom <= 1.0:
            raise FrameworkError(
                f"p99_headroom must be in (0, 1], got {p99_headroom}")
        self.high_water = float(high_water)
        self.low_water = float(low_water)
        self.p99_headroom = float(p99_headroom)

    def desired(self, signal: AutoscaleSignal) -> int:
        capacity = max(1, signal.capacity)
        per_host = signal.total_outstanding / capacity
        hot = (signal.slo_seconds is not None
               and signal.rolling_p99 is not None
               and signal.rolling_p99
               > self.p99_headroom * signal.slo_seconds)
        if per_host > self.high_water or hot:
            return capacity + 1
        if (capacity > 1 and not hot
                and signal.total_outstanding / (capacity - 1)
                <= self.low_water):
            return capacity - 1
        return capacity

    def describe(self) -> str:
        return (f"reactive (out > {self.high_water:g}/host or p99 > "
                f"{self.p99_headroom:.0%} SLO, in <= "
                f"{self.low_water:g}/host)")


class PredictivePolicy(AutoscalePolicy):
    """Diurnal-phase-aware provisioning with pre-warm lead time.

    The policy and the workload generator share one phase function
    (:meth:`~repro.serve.workload.DiurnalWorkload.diurnal_phase`), so
    the prediction is exact up to thinning noise: the desired count is
    the predicted arrival rate a ``lead_s`` ahead, divided by what one
    host sustains at the target utilisation.
    """

    name = "predictive"

    def __init__(self, workload: Any, host_rate: float,
                 lead_s: float = 0.0,
                 utilization: float = 0.7) -> None:
        if not hasattr(workload, "diurnal_phase"):
            raise FrameworkError(
                "predictive policy needs a workload with a "
                "diurnal_phase(t) query (e.g. DiurnalWorkload), got "
                f"{type(workload).__name__}")
        if host_rate <= 0:
            raise FrameworkError(
                f"host_rate must be positive, got {host_rate}")
        if lead_s < 0:
            raise FrameworkError(
                f"lead_s must be >= 0, got {lead_s}")
        if not 0.0 < utilization <= 1.0:
            raise FrameworkError(
                f"utilization must be in (0, 1], got {utilization}")
        self.workload = workload
        self.host_rate = float(host_rate)
        self.lead_s = float(lead_s)
        self.utilization = float(utilization)

    def desired(self, signal: AutoscaleSignal) -> int:
        phase = self.workload.diurnal_phase(
            signal.since_epoch + self.lead_s)
        rate = self.workload.peak_rate * phase
        return max(1, math.ceil(
            rate / (self.host_rate * self.utilization)))

    def describe(self) -> str:
        return (f"predictive (lead {self.lead_s * 1000:.0f} ms, "
                f"{self.host_rate:g} req/s/host @ "
                f"{self.utilization:.0%})")


class Autoscaler:
    """Drives scale decisions against a running cluster server.

    One action per ``interval_s`` tick at most, and never two actions
    within ``cooldown_s`` of each other — the damping layer under the
    policy's own hysteresis.  ``warm_pool`` slots beyond the live set
    are kept pre-initialised (target prepared, not serving) so a
    scale-out activates instantly instead of paying a cold boot.
    """

    def __init__(self, policy: AutoscalePolicy, *,
                 min_hosts: int = 1,
                 max_hosts: Optional[int] = None,
                 interval_s: float = 0.02,
                 cooldown_s: float = 0.05,
                 warm_pool: int = 1,
                 latency_window: int = 64) -> None:
        if min_hosts < 1:
            raise FrameworkError(
                f"min_hosts must be >= 1, got {min_hosts}")
        if max_hosts is not None and max_hosts < min_hosts:
            raise FrameworkError(
                f"max_hosts {max_hosts} below min_hosts {min_hosts}")
        if interval_s <= 0:
            raise FrameworkError(
                f"interval_s must be positive, got {interval_s}")
        if cooldown_s < 0:
            raise FrameworkError(
                f"cooldown_s must be >= 0, got {cooldown_s}")
        if warm_pool < 0:
            raise FrameworkError(
                f"warm_pool must be >= 0, got {warm_pool}")
        if latency_window < 1:
            raise FrameworkError(
                f"latency_window must be >= 1, got {latency_window}")
        self.policy = policy
        self.min_hosts = min_hosts
        self.max_hosts = max_hosts
        self.interval_s = float(interval_s)
        self.cooldown_s = float(cooldown_s)
        self.warm_pool = warm_pool
        self.latency_window = latency_window
        self._latencies = RollingP99(latency_window)
        self._last_action: Optional[float] = None

    def reset(self) -> None:
        """Clear per-run state (called by the server at run start)."""
        self._latencies.clear()
        self._last_action = None

    # -- signals ---------------------------------------------------------
    def note_completion(self, latency: float) -> None:
        """Feed one completed request's e2e latency into the rolling
        window (called by the server's resolution path)."""
        self._latencies.append(latency)

    def rolling_p99(self) -> Optional[float]:
        """p99 over the rolling completion window, or None when
        nothing completed yet (see :class:`~repro.sim.monitor.RollingP99`)."""
        return self._latencies.p99()

    # -- the control loop ------------------------------------------------
    def run(self, server: Any) -> Generator[Any, None, None]:
        """The tick process (forked by the server inside its run)."""
        env = server._env
        while True:
            yield env.timeout(self.interval_s)
            if server.finished:
                return
            signal = server.autoscale_signal()
            desired = self.policy.desired(signal)
            ceiling = signal.capacity + signal.addable
            if self.max_hosts is not None:
                ceiling = min(ceiling, self.max_hosts)
            desired = max(self.min_hosts, min(desired, ceiling))
            if desired == signal.capacity:
                continue
            now = env.now
            if (self._last_action is not None
                    and now - self._last_action < self.cooldown_s):
                continue
            if desired > signal.capacity:
                reason = (f"{self.policy.name}: want {desired}, "
                          f"have {signal.capacity}")
                if server.scale_out(reason=reason) is not None:
                    self._last_action = now
            elif signal.live > self.min_hosts:
                reason = (f"{self.policy.name}: want {desired}, "
                          f"have {signal.capacity}")
                if server.drain_host(reason=reason) is not None:
                    self._last_action = now


# -- scripted scale events (the property-test harness) -------------------

@dataclass(frozen=True)
class ScaleAction:
    """One scripted scale action for a :class:`ScalePlan`."""

    at: float                 #: sim-clock time to act
    action: str               #: ``"out"`` or ``"drain"``
    slot: Optional[int] = None  #: pool slot to drain (default: pick)

    def __post_init__(self) -> None:
        if self.action not in ("out", "drain"):
            raise FrameworkError(
                f"scale action must be 'out' or 'drain', got "
                f"{self.action!r}")
        if self.at < 0:
            raise FrameworkError(
                f"scale action time must be >= 0, got {self.at}")


class ScalePlan:
    """A deterministic schedule of scale actions.

    The policy-free twin of the autoscaler: tests (and the CLI) can
    script exact interleavings of scale-out, drain and — combined
    with ``host_faults`` — whole-host kills, then assert the
    exactly-once invariant survives every ordering.
    """

    def __init__(self, actions: Iterable[ScaleAction] = ()) -> None:
        self.actions = sorted(actions, key=lambda a: a.at)

    def __len__(self) -> int:
        return len(self.actions)


# -- the cost-vs-SLO frontier -------------------------------------------

@dataclass(frozen=True)
class CostPoint:
    """One configuration's cost/quality outcome for the frontier."""

    label: str
    host_seconds: float      #: summed active host time (the cost)
    attainment: float        #: steady-state SLO attainment
    p99_ms: Optional[float]  #: merged p99 in ms, or None
    completed: int
    offered: int
    lost: int                #: offered - completed
    scale_outs: int = 0
    scale_ins: int = 0


def cost_point(label: str, result: Any) -> CostPoint:
    """Fold one :class:`~repro.cluster.result.ClusterResult` into a
    frontier point."""
    try:
        p99_ms: Optional[float] = result.p99 * 1000.0
    except ValueError:
        p99_ms = None
    events = getattr(result, "scale_events", [])
    return CostPoint(
        label=label,
        host_seconds=result.host_seconds,
        attainment=result.slo_attainment,
        p99_ms=p99_ms,
        completed=result.completed,
        offered=result.offered,
        lost=result.offered - result.completed,
        scale_outs=sum(1 for e in events if e.action == SCALE_OUT),
        scale_ins=sum(1 for e in events if e.action == SCALE_IN))


def render_cost_table(points: list[CostPoint],
                      slo_seconds: Optional[float] = None) -> str:
    """The host-hours vs SLO-attainment frontier, one row per config.

    Deterministic fixed-width text, same contract as the sweep and
    cluster reports.
    """
    if not points:
        return "cost vs SLO frontier: no results"
    lines = ["cost vs SLO frontier: host-seconds vs attainment"]
    if slo_seconds is not None:
        lines.append(
            f"  SLO: p99 <= {slo_seconds * 1000:.0f} ms")
    lines += [
        "",
        f"  {'config':<16} {'host-sec':>9} {'attain':>8} "
        f"{'p99 ms':>9} {'lost':>5} {'scale +/-':>10}",
    ]
    for p in points:
        p99 = f"{p.p99_ms:>9.2f}" if p.p99_ms is not None else (
            f"{'-':>9}")
        lines.append(
            f"  {p.label:<16} {p.host_seconds:>9.3f} "
            f"{p.attainment:>7.1%} {p99} {p.lost:>5} "
            f"{p.scale_outs:>5}/{p.scale_ins:<4}")
    return "\n".join(lines)
