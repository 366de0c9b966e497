"""Hybrid fluid / discrete-event simulation of the elastic cluster.

Day-long autoscale campaigns at millions of users are out of reach
for per-request DES: every request costs a handful of kernel events,
so a 1e6-user diurnal day is ~1e7 events per configuration.  This
module trades per-request exactness for a mean-field *fluid* model —
queue occupancy evolves by a rate ODE — except where discreteness
actually matters, where it drops back to an exact per-request DES:

* **Fluid windows** (steady state): backlog mass ``q`` obeys
  ``dq/dt = lambda(t) - min(mu * n, ...)`` integrated with explicit
  Euler substeps; served mass is attributed a sojourn of
  ``q/(mu*n) + floor`` (wait behind the backlog, then one service —
  ``floor`` defaults to ``1/mu`` and should be raised to
  ``batch/mu`` when the real cluster serves in batches, since a
  request's latency includes its whole batch's service).
* **DES windows** (transients): whenever a scale action is in
  flight, the predicted sojourn sits inside the SLO boundary band,
  arrivals are a discrete trickle, or the estimated stochastic
  queueing tail reaches the SLO's neighbourhood, the window is
  simulated request-by-request — seeded thinned arrivals, ``n``
  parallel deterministic servers — so integer effects (an empty
  queue, the one request that misses the deadline) are exact where
  they decide the metrics.

The autoscaler stack is reused verbatim: the same policy objects
(:class:`~repro.cluster.autoscale.ReactivePolicy` /
:class:`~repro.cluster.autoscale.PredictivePolicy`) are fed
synthesized :class:`~repro.cluster.autoscale.AutoscaleSignal`
snapshots at the same tick interval, under the same min/max/cooldown
clamps, so fluid scale timelines are directly comparable to DES ones.

Model simplifications (the equivalence gate's tolerance bands exist
because of these): the admission queue is unbounded (no shed/reject),
a host is one FIFO server at the calibrated closed-loop rate, scale
events are instant when a warm slot exists (``boot_s`` otherwise),
and drain is immediate.  :func:`equivalence_gate` asserts
attainment / goodput / p99 agreement against a pure-DES
:class:`~repro.cluster.server.ClusterServer` run on configs small
enough to afford one.
"""

from __future__ import annotations

import hashlib
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.sim.monitor import RollingP99

#: Window simulation modes.
FLUID = "fluid"
DES = "des"

#: Scale action labels — string-identical to
#: :data:`repro.cluster.autoscale.SCALE_OUT` / ``SCALE_IN`` so
#: :func:`repro.cluster.autoscale.cost_point` counts them unchanged
#: (kept literal here to avoid a sim -> cluster import cycle).
SCALE_OUT = "scale-out"
SCALE_IN = "scale-in"


def _rng(seed: int, salt: str) -> np.random.Generator:
    digest = hashlib.sha256(f"sim-fluid:{seed}:{salt}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass(frozen=True)
class FluidScaleEvent:
    """One committed scale action (duck-compatible with
    :class:`~repro.cluster.autoscale.ScaleEvent`)."""

    time: float
    action: str
    host: str
    reason: str
    live_after: int


@dataclass(frozen=True)
class FluidWindow:
    """One simulated window and the mode that ran it."""

    start: float
    end: float
    mode: str        #: :data:`FLUID` or :data:`DES`
    arrivals: float  #: offered mass in the window
    served: float    #: completed mass in the window


@dataclass
class FluidResult:
    """Outcome of one hybrid run, attribute-compatible with the
    slices of :class:`~repro.cluster.result.ClusterResult` that the
    cost-frontier folds on (``host_seconds``, ``slo_attainment``,
    ``p99``, ``completed``, ``offered``, ``scale_events``)."""

    offered: int
    completed: int
    completed_mass: float
    attained_mass: float
    host_seconds: float
    wall_seconds: float          #: simulated span (start -> drain)
    elapsed_s: float             #: real wall-clock spent simulating
    slo_seconds: Optional[float]
    scale_events: List[FluidScaleEvent] = field(default_factory=list)
    windows: List[FluidWindow] = field(default_factory=list)
    #: Weighted sojourn samples ``(sojourn_s, mass)`` for percentiles.
    samples: List[tuple] = field(default_factory=list)
    steps: int = 0

    @property
    def slo_attainment(self) -> float:
        """Fraction of served mass inside the SLO."""
        if self.completed_mass <= 0.0:
            return 0.0
        return self.attained_mass / self.completed_mass

    @property
    def goodput(self) -> float:
        """SLO-attained completions per simulated second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.attained_mass / self.wall_seconds

    @property
    def p99(self) -> float:
        """Mass-weighted p99 sojourn in seconds.

        Raises ``ValueError`` when nothing was served — the same
        contract as the DES results, which the cost-frontier helper
        relies on."""
        return self.percentile(0.99)

    def percentile(self, frac: float) -> float:
        """Mass-weighted sojourn percentile (*frac* in [0, 1])."""
        if not self.samples:
            raise ValueError("no served mass to take percentiles of")
        ordered = sorted(self.samples)
        total = sum(m for _, m in ordered)
        target = frac * total
        acc = 0.0
        for sojourn, mass in ordered:
            acc += mass
            if acc >= target:
                return sojourn
        return ordered[-1][0]

    @property
    def des_windows(self) -> int:
        """Number of windows that ran exact per-request DES."""
        return sum(1 for w in self.windows if w.mode == DES)

    @property
    def fluid_windows(self) -> int:
        """Number of windows that ran the mean-field ODE."""
        return sum(1 for w in self.windows if w.mode == FLUID)

    def summary(self) -> str:
        """One-line human summary (counts, attainment, p99, modes)."""
        p99 = "-"
        try:
            p99 = f"{self.p99 * 1000:.2f} ms"
        except ValueError:
            pass
        return (f"offered {self.offered}, completed {self.completed}, "
                f"attainment {self.slo_attainment:.1%}, p99 {p99}, "
                f"host-sec {self.host_seconds:.3f}, "
                f"{self.fluid_windows} fluid + {self.des_windows} DES "
                f"windows in {self.elapsed_s * 1000:.0f} ms")


class FluidCluster:
    """Hybrid fluid/DES model of the elastic serving cluster.

    Parameters mirror the autoscale campaign setup: a *workload* with
    ``rate_at(t)`` (e.g. :class:`~repro.serve.workload
    .DiurnalWorkload`), the calibrated closed-loop *host_rate*, the
    pool size, and optionally the same :class:`~repro.cluster
    .autoscale.Autoscaler` the DES campaign would use (``None``
    pins the host count at *initial_hosts*).
    """

    def __init__(self, workload: Any, host_rate: float, *,
                 pool: int,
                 autoscaler: Optional[Any] = None,
                 initial_hosts: Optional[int] = None,
                 slo_seconds: Optional[float] = 0.250,
                 boot_s: float = 0.05,
                 dt: Optional[float] = None,
                 service_floor_s: Optional[float] = None,
                 hybrid: bool = True,
                 slo_band: float = 0.25,
                 des_trickle: float = 8.0,
                 max_des_requests: int = 20000,
                 seed: int = 0) -> None:
        if host_rate <= 0:
            raise SimulationError(
                f"host_rate must be positive, got {host_rate}")
        if pool < 1:
            raise SimulationError(f"pool must be >= 1, got {pool}")
        if slo_seconds is not None and slo_seconds <= 0:
            raise SimulationError(
                f"slo_seconds must be positive, got {slo_seconds}")
        self.workload = workload
        self.rate_at: Callable[[float], float]
        if hasattr(workload, "rate_at"):
            self.rate_at = workload.rate_at
        elif hasattr(workload, "rate"):
            rate = float(workload.rate)
            self.rate_at = lambda t: rate
        else:
            raise SimulationError(
                "fluid model needs a workload with rate_at(t) or a "
                f"constant .rate, got {type(workload).__name__}")
        self.mu = float(host_rate)
        self.pool = int(pool)
        self.autoscaler = autoscaler
        if initial_hosts is None:
            initial_hosts = (autoscaler.min_hosts
                             if autoscaler is not None else pool)
        if not 1 <= initial_hosts <= pool:
            raise SimulationError(
                f"initial_hosts must be in [1, {pool}], "
                f"got {initial_hosts}")
        self.initial_hosts = int(initial_hosts)
        self.slo_seconds = slo_seconds
        self.boot_s = float(boot_s)
        #: Per-request service-latency floor.  ``1/mu`` models one
        #: isolated service; a batched cluster should pass
        #: ``batch/host_rate`` — throughput is unchanged (rates stay
        #: calibrated) but every completion's latency includes its
        #: batch's assembly and service.
        self.service_floor_s = max(float(service_floor_s or 0.0),
                                   1.0 / self.mu)
        self.interval_s = (autoscaler.interval_s
                           if autoscaler is not None else 0.02)
        self.dt = float(dt) if dt is not None else self.interval_s / 4.0
        if self.dt <= 0:
            raise SimulationError(f"dt must be positive, got {self.dt}")
        self.hybrid = bool(hybrid)
        self.slo_band = float(slo_band)
        self.des_trickle = float(des_trickle)
        self.max_des_requests = int(max_des_requests)
        self.seed = int(seed)

    # -- the run ---------------------------------------------------------
    def run(self, num_requests: int) -> FluidResult:
        """Simulate until *num_requests* have been offered and the
        backlog has drained; returns the accounting."""
        if num_requests < 1:
            raise SimulationError(
                f"need at least one request, got {num_requests}")
        t_start = _time.perf_counter()
        mu = self.mu
        interval = self.interval_s
        live = self.initial_hosts
        warm = (self.autoscaler.warm_pool
                if self.autoscaler is not None else 0)
        booting: List[float] = []     #: ready-at times of cold boots
        q = 0.0                       #: backlog mass (requests)
        offered = 0.0
        served_mass = 0.0
        attained = 0.0
        host_seconds = 0.0
        last_scale: Optional[float] = None
        scale_events: List[FluidScaleEvent] = []
        windows: List[FluidWindow] = []
        samples: List[tuple] = []
        recent = RollingP99(4096)  #: rolling sojourns
        steps = 0
        #: DES-window carry: server next-free times persist across
        #: consecutive DES windows so a service longer than the tick
        #: interval can straddle window boundaries (slow hosts).
        free_times: Optional[List[float]] = None
        t = 0.0
        win_index = 0
        slot_gen = self.initial_hosts  #: next slot label to activate

        def tick(now: float) -> None:
            """One autoscaler decision, same clamps as the DES loop."""
            nonlocal live, warm, last_scale, slot_gen
            asc = self.autoscaler
            if asc is None:
                return
            from repro.cluster.autoscale import AutoscaleSignal

            capacity = live + len(booting)
            addable = self.pool - capacity
            signal = AutoscaleSignal(
                time=now, since_epoch=now, live=live,
                booting=len(booting), addable=addable,
                total_outstanding=int(round(q)),
                rolling_p99=recent.p99(),
                slo_seconds=self.slo_seconds)
            desired = asc.policy.desired(signal)
            ceiling = capacity + addable
            if asc.max_hosts is not None:
                ceiling = min(ceiling, asc.max_hosts)
            desired = max(asc.min_hosts, min(desired, ceiling))
            if desired == capacity:
                return
            if (last_scale is not None
                    and now - last_scale < asc.cooldown_s):
                return
            reason = (f"{asc.policy.name}: want {desired}, "
                      f"have {capacity}")
            if desired > capacity and addable > 0:
                if warm > 0:
                    live += 1   # warm slot: activates instantly
                else:
                    booting.append(now + self.boot_s)
                scale_events.append(FluidScaleEvent(
                    time=now, action=SCALE_OUT,
                    host=f"slot-{slot_gen}", reason=reason,
                    live_after=live))
                slot_gen += 1
                last_scale = now
            elif desired < capacity and live > asc.min_hosts:
                live -= 1
                scale_events.append(FluidScaleEvent(
                    time=now, action=SCALE_IN,
                    host=f"slot-{live}", reason=reason,
                    live_after=live))
                last_scale = now

        while True:
            # Activate cold boots that finished before this window.
            if booting:
                ready = [r for r in booting if r <= t]
                if ready:
                    live += len(ready)
                    booting = [r for r in booting if r > t]
            tick(t)
            # DES windows offer whole requests, fluid windows offer
            # mass — the half-request slack absorbs the remainder so
            # mixed runs terminate at the target count.
            arriving = offered < num_requests - 0.5
            if not arriving and q <= 1e-9 and not booting:
                break
            end = t + interval
            lam = self.rate_at(t) if arriving else 0.0
            arr_window = lam * interval
            transient = self.hybrid and self._is_transient(
                q, live, lam, arr_window, t, booting)
            if transient:
                (q, got, done, att, win_samples,
                 nsteps, free_times) = self._des_window(
                    t, interval, live, q, lam,
                    num_requests - offered, win_index, free_times)
            else:
                (q, got, done, att, win_samples,
                 nsteps) = self._fluid_window(
                    t, interval, live, q, lam,
                    num_requests - offered)
                # Fluid service is continuous: discrete server
                # occupancy does not carry through a fluid window.
                free_times = None
            offered += got
            served_mass += done
            attained += att
            samples.extend(win_samples)
            for s, m in win_samples:
                recent.append(s)
            host_seconds += live * interval
            steps += nsteps
            windows.append(FluidWindow(start=t, end=end,
                                       mode=DES if transient
                                       else FLUID,
                                       arrivals=got, served=done))
            t = end
            win_index += 1
            if t > 1e7:
                raise SimulationError(
                    "fluid run did not drain (runaway backlog?)")
        return FluidResult(
            offered=int(round(offered)),
            completed=int(round(served_mass)),
            completed_mass=served_mass,
            attained_mass=attained,
            host_seconds=host_seconds,
            wall_seconds=t,
            elapsed_s=_time.perf_counter() - t_start,
            slo_seconds=self.slo_seconds,
            scale_events=scale_events,
            windows=windows,
            samples=samples,
            steps=steps)

    # -- window kernels --------------------------------------------------
    def _is_transient(self, q: float, live: int, lam: float,
                      arr_window: float, t: float,
                      booting: List[float]) -> bool:
        """DES when discreteness decides the window's metrics."""
        if booting:
            return True   # capacity changes mid-window (boot lands)
        if arr_window > 0.0 and arr_window < self.des_trickle:
            return True   # a handful of requests: integer regime
        if self.slo_seconds is not None:
            cap = self.mu * max(1, live)
            sojourn = q / cap + self.service_floor_s
            if abs(sojourn - self.slo_seconds) \
                    <= self.slo_band * self.slo_seconds:
                return True   # attainment boundary: exact ruling
            rho = lam / cap
            if 0.0 < rho < 1.0:
                # Mean-field queues vanish below saturation, but
                # real Poisson arrivals at moderate utilisation
                # still wait (M/M/n-ish tail, ~p99 at 4.6 mean
                # waits).  When that tail reaches the SLO's
                # neighbourhood only exact simulation can rule on
                # attainment.  Vanishes at scale: the wait shrinks
                # with n while SLOs do not (square-root staffing).
                wait99 = 4.6 * rho / ((1.0 - rho) * cap)
                if (wait99 + sojourn
                        >= (1.0 - self.slo_band) * self.slo_seconds):
                    return True
        return False

    def _fluid_window(self, t0: float, win: float, live: int,
                      q: float, lam: float, offer_left: float):
        """Euler substeps of the rate ODE over one window."""
        mu_n = self.mu * max(1, live)
        dt = self.dt
        nsub = max(1, int(round(win / dt)))
        dt = win / nsub
        slo = self.slo_seconds
        got = 0.0
        done = 0.0
        att = 0.0
        samples: List[tuple] = []
        for k in range(nsub):
            arr = min(lam * dt, offer_left - got) if lam > 0 else 0.0
            if arr < 0.0:
                arr = 0.0
            cap = mu_n * dt
            serve = q + arr if q + arr < cap else cap
            # Sojourn of the mass served this substep: wait behind
            # the standing backlog, then one service.
            sojourn = q / mu_n + self.service_floor_s
            q = q + arr - serve
            got += arr
            done += serve
            if serve > 0.0:
                samples.append((sojourn, serve))
                if slo is None or sojourn <= slo:
                    att += serve
        return q, got, done, att, samples, nsub

    def _des_window(self, t0: float, win: float, live: int,
                    q: float, lam: float, offer_left: float,
                    win_index: int,
                    free: Optional[List[float]] = None):
        """Exact per-request window: seeded arrivals, ``live``
        parallel deterministic servers, sojourn per request.

        ``free`` is the server next-free times carried from the
        previous window (None after a fluid window or at the start):
        occupancy must straddle window boundaries, otherwise a
        service time longer than the tick interval could never
        complete at all.
        """
        mu = self.mu
        n = max(1, live)
        service = 1.0 / mu
        # Server occupancy stays 1/mu (throughput is calibrated);
        # the latency floor above it (batch assembly + the rest of
        # the batch's service) is experienced, not capacity-consuming.
        floor_extra = self.service_floor_s - service
        if free is None:
            free = [t0] * n
        elif len(free) < n:
            free = free + [t0] * (n - len(free))   # scale-out: idle
        elif len(free) > n:
            free = sorted(free)[:n]                # scale-in: drop
        # Materialise the backlog head as discrete requests with
        # synthetic arrivals (they queued behind i/(mu*n) of work).
        head = int(min(round(q), self.max_des_requests))
        carry_mass = q - head   # stays fluid behind the head
        pending: List[float] = [t0 - i / (mu * n)
                                for i in range(head, 0, -1)]
        # Thinned Poisson arrivals in [t0, t0+win) at rate lam.
        if lam > 0.0 and offer_left >= 1.0:
            rng = _rng(self.seed, f"window:{win_index}")
            t = t0
            budget = int(offer_left)
            while budget > 0:
                t += float(rng.exponential(1.0 / lam))
                if t >= t0 + win:
                    break
                pending.append(t)
                budget -= 1
        got = float(max(0, len(pending) - head))
        slo = self.slo_seconds
        done = 0.0
        att = 0.0
        samples: List[tuple] = []
        end = t0 + win
        qlen = 0
        for j, arrival in enumerate(pending):
            idx = free.index(min(free))
            start = free[idx] if free[idx] > arrival else arrival
            if start >= end:
                # FIFO: every server is busy past the window edge,
                # so the whole tail rolls into the next window's
                # backlog (starts only grow down the list).
                qlen = len(pending) - j
                break
            finish = start + service
            free[idx] = finish
            sojourn = finish - arrival + floor_extra
            done += 1.0
            samples.append((sojourn, 1.0))
            if slo is None or sojourn <= slo:
                att += 1.0
        q_out = carry_mass + qlen
        return q_out, got, done, att, samples, len(pending), free


# -- the equivalence gate -------------------------------------------------

@dataclass(frozen=True)
class GateCheck:
    """One metric comparison inside the gate."""

    name: str
    fluid: Optional[float]
    des: Optional[float]
    tol: float
    kind: str   #: ``"abs"`` or ``"rel"``
    ok: bool


@dataclass(frozen=True)
class GateReport:
    """Hybrid-vs-DES agreement verdict."""

    ok: bool
    checks: List[GateCheck]

    def render(self) -> str:
        """Fixed-width table of per-check verdicts."""
        lines = ["fluid-vs-DES equivalence gate: "
                 + ("PASS" if self.ok else "FAIL")]
        for c in self.checks:
            fl = "-" if c.fluid is None else f"{c.fluid:.4g}"
            de = "-" if c.des is None else f"{c.des:.4g}"
            lines.append(
                f"  {c.name:<12} fluid {fl:>10} des {de:>10} "
                f"tol {c.tol:g} ({c.kind})  "
                f"{'ok' if c.ok else 'VIOLATION'}")
        return "\n".join(lines)


#: Agreement bands of :func:`equivalence_gate`: attainment absolute,
#: goodput and p99 relative to the DES value.
_ATTAINMENT_TOL = 0.12
_GOODPUT_TOL = 0.30
_P99_TOL = 0.75


def equivalence_gate(fluid: FluidResult, des: Any) -> GateReport:
    """Assert the hybrid run agrees with a pure-DES run.

    *des* is any result exposing ``slo_attainment``, ``goodput`` and
    ``p99`` (a :class:`~repro.cluster.result.ClusterResult` or
    :class:`~repro.serve.result.ServeResult`).  Attainment compares
    absolutely; goodput and p99 relative to the DES value.  The bands
    are deliberately loose — the fluid model has no admission control
    and deterministic service — but tight enough that a model that
    drifts into a different operating regime (queue growing vs
    draining, attainment cliff) fails loudly.
    """
    checks: List[GateCheck] = []

    f_att = fluid.slo_attainment
    d_att = float(des.slo_attainment)
    checks.append(GateCheck(
        name="attainment", fluid=f_att, des=d_att,
        tol=_ATTAINMENT_TOL, kind="abs",
        ok=abs(f_att - d_att) <= _ATTAINMENT_TOL))

    f_gp = fluid.goodput
    d_gp = float(des.goodput)
    if d_gp > 0.0:
        ok = abs(f_gp - d_gp) <= _GOODPUT_TOL * d_gp
    else:
        ok = f_gp == 0.0
    checks.append(GateCheck(
        name="goodput", fluid=f_gp, des=d_gp,
        tol=_GOODPUT_TOL, kind="rel", ok=ok))

    f_p99: Optional[float] = None
    d_p99: Optional[float] = None
    try:
        f_p99 = fluid.p99
        d_p99 = float(des.p99)
    except ValueError:
        pass
    if f_p99 is not None and d_p99 is not None and d_p99 > 0.0:
        checks.append(GateCheck(
            name="p99", fluid=f_p99, des=d_p99,
            tol=_P99_TOL, kind="rel",
            ok=abs(f_p99 - d_p99) <= _P99_TOL * d_p99))

    return GateReport(ok=all(c.ok for c in checks), checks=checks)
