"""Open-loop request workloads for the serving layer.

The paper's campaigns are *closed-loop*: a fixed image set is fed as
fast as the sticks drain it, so offered load always equals capacity.
An online service lives in the *open-loop* regime instead — requests
arrive on their own clock, whether or not the backend keeps up — and
the numbers that decide viability are latency percentiles under that
arrival process, not aggregate throughput.

A :class:`Workload` is a deterministic generator of arrival times on
the simulated clock.  Four arrival processes cover the usual load
shapes:

* :class:`PoissonWorkload` — memoryless arrivals at a constant rate
  (the M/G/k textbook case);
* :class:`BurstyWorkload` — a two-state Markov-modulated Poisson
  process (MMPP-2): quiet periods at a base rate punctuated by bursts
  at a much higher rate;
* :class:`DiurnalWorkload` — a sinusoidal rate ramp (one "day" of
  traffic compressed into ``period_s``), generated by thinning;
* :class:`TraceWorkload` — replay of explicit arrival offsets, e.g.
  recorded from a production front-end.

Determinism contract: arrival times are drawn from a seeded RNG
(sha256 of the seed, not Python's salted ``hash``), so the same
constructor arguments always produce the same arrival sequence, byte
for byte, independent of call order or platform.  Everything the
server measures downstream inherits that reproducibility.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import FrameworkError

#: Request lifecycle states (exactly one terminal state per request).
PENDING = "pending"        #: created, not yet resolved
COMPLETED = "completed"    #: inference result delivered
SHED = "shed"              #: evicted from a full queue (shed-oldest)
REJECTED = "rejected"      #: turned away at admission (reject-newest)
TIMED_OUT = "timed_out"    #: deadline expired while queued
ABANDONED = "abandoned"    #: lost to device failure past the retry budget


def _seeded_rng(seed: int, salt: str = "") -> np.random.Generator:
    """Stable RNG from a seed (sha256, not Python's salted hash)."""
    digest = hashlib.sha256(
        f"serve-workload:{seed}:{salt}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass
class Request:
    """One inference request's journey through the serving layer."""

    request_id: int
    arrival_time: float
    #: Absolute queue deadline on the sim clock, or None for no limit.
    deadline_at: Optional[float] = None
    tensor: Optional[np.ndarray] = field(repr=False, default=None)
    # -- lifecycle timestamps, stamped by the server ------------------
    admitted_at: Optional[float] = None
    dequeued_at: Optional[float] = None
    dispatched_at: Optional[float] = None
    completed_at: Optional[float] = None
    status: str = PENDING
    backend: Optional[str] = None
    batch_size: Optional[int] = None
    #: Times the request was re-routed after a backend died.
    redirects: int = 0
    #: Times the request was re-sharded to another host after a
    #: cluster host died (see :mod:`repro.cluster`).
    reshards: int = 0
    #: Causal trace context (:class:`repro.obs.reqtrace.TraceContext`)
    #: attached by the request tracer when the request is sampled;
    #: None when observability is off or the request is unsampled.
    trace: Optional[object] = field(repr=False, default=None)
    #: The :class:`~repro.ncsw.records.InferenceRecord` produced by the
    #: backend for a completed request, when the target ran real
    #: inference; None in timing-only mode or for unresolved requests.
    #: Workflow decode hooks (:mod:`repro.flow`) read predictions from
    #: here.
    record: Optional[object] = field(repr=False, default=None)

    def reset_for_reshard(self) -> None:
        """Clear serving stamps so the request can be re-served.

        When a cluster host dies mid-serve, every request it owned but
        never resolved is handed to a surviving host.  Partial
        timestamps from the dead host (admission, dequeue, dispatch)
        would corrupt the stage latencies measured on the second
        attempt, so the journey restarts clean; only ``arrival_time``,
        the deadline, the re-shard count and the trace context
        survive (the trace keeps recording hops across the re-shard).
        """
        self.admitted_at = None
        self.dequeued_at = None
        self.dispatched_at = None
        self.completed_at = None
        self.status = PENDING
        self.backend = None
        self.batch_size = None
        self.reshards += 1

    @property
    def queue_wait(self) -> Optional[float]:
        """Admission-to-dequeue wait, or None if never dequeued."""
        if self.admitted_at is None or self.dequeued_at is None:
            return None
        return self.dequeued_at - self.admitted_at

    @property
    def batch_wait(self) -> Optional[float]:
        """Dequeue-to-dispatch wait (time spent forming the batch)."""
        if self.dequeued_at is None or self.dispatched_at is None:
            return None
        return self.dispatched_at - self.dequeued_at

    @property
    def service_seconds(self) -> Optional[float]:
        """Dispatch-to-completion time (transfer + inference)."""
        if self.dispatched_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.dispatched_at

    @property
    def e2e_latency(self) -> Optional[float]:
        """Arrival-to-completion latency, or None if not completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival_time


class Workload:
    """Abstract deterministic arrival process."""

    name = "workload"

    def arrival_times(self, n: int) -> list[float]:
        """The first *n* arrival offsets (seconds, non-decreasing)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line description for report headers."""
        return self.name

    def requests(self, n: int,
                 deadline_s: Optional[float] = None,
                 payloads: Optional[Iterable[Optional[np.ndarray]]] = None
                 ) -> list[Request]:
        """Materialise *n* requests with arrival timestamps.

        ``deadline_s`` is a relative queue deadline applied to every
        request; ``payloads`` optionally supplies one tensor per
        request (e.g. iterating a
        :class:`~repro.ncsw.sources.SyntheticSource` with a payload
        hook).
        """
        if n < 1:
            raise FrameworkError(f"need at least one request, got {n}")
        if deadline_s is not None and deadline_s <= 0:
            raise FrameworkError(
                f"deadline_s must be positive, got {deadline_s}")
        times = self.arrival_times(n)
        tensors: list[Optional[np.ndarray]] = [None] * n
        if payloads is not None:
            it = iter(payloads)
            for i in range(n):
                try:
                    tensors[i] = next(it)
                except StopIteration:
                    raise FrameworkError(
                        f"payload source exhausted after {i} of {n} "
                        "requests") from None
        return [Request(request_id=i, arrival_time=t,
                        deadline_at=(t + deadline_s
                                     if deadline_s is not None
                                     else None),
                        tensor=tensors[i])
                for i, t in enumerate(times)]


class PoissonWorkload(Workload):
    """Constant-rate memoryless arrivals (exponential gaps)."""

    name = "poisson"

    def __init__(self, rate: float, seed: int = 0) -> None:
        if rate <= 0:
            raise FrameworkError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)

    def arrival_times(self, n: int) -> list[float]:
        rng = _seeded_rng(self.seed, f"poisson:{self.rate}")
        gaps = rng.exponential(1.0 / self.rate, size=n)
        return [float(t) for t in np.cumsum(gaps)]

    def describe(self) -> str:
        return f"poisson @ {self.rate:g} req/s (seed {self.seed})"


class BurstyWorkload(Workload):
    """Two-state MMPP: quiet Poisson traffic punctuated by bursts.

    Dwell times in each state are exponential with the given means;
    within a state, arrivals are Poisson at that state's rate.  The
    long-run average rate is the dwell-weighted mean of the two.
    """

    name = "bursty"

    def __init__(self, base_rate: float, burst_rate: float,
                 mean_quiet_s: float = 2.0, mean_burst_s: float = 0.5,
                 seed: int = 0) -> None:
        if base_rate <= 0 or burst_rate <= 0:
            raise FrameworkError("rates must be positive")
        if burst_rate <= base_rate:
            raise FrameworkError(
                f"burst_rate {burst_rate} must exceed base_rate "
                f"{base_rate}")
        if mean_quiet_s <= 0 or mean_burst_s <= 0:
            raise FrameworkError("dwell times must be positive")
        self.base_rate = float(base_rate)
        self.burst_rate = float(burst_rate)
        self.mean_quiet_s = float(mean_quiet_s)
        self.mean_burst_s = float(mean_burst_s)
        self.seed = int(seed)

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate (dwell-weighted)."""
        total = self.mean_quiet_s + self.mean_burst_s
        return (self.base_rate * self.mean_quiet_s
                + self.burst_rate * self.mean_burst_s) / total

    def arrival_times(self, n: int) -> list[float]:
        rng = _seeded_rng(
            self.seed,
            f"bursty:{self.base_rate}:{self.burst_rate}:"
            f"{self.mean_quiet_s}:{self.mean_burst_s}")
        times: list[float] = []
        t = 0.0
        bursting = False
        # Alternate quiet/burst windows until n arrivals accumulate.
        while len(times) < n:
            rate = self.burst_rate if bursting else self.base_rate
            dwell = float(rng.exponential(
                self.mean_burst_s if bursting else self.mean_quiet_s))
            end = t + dwell
            while len(times) < n:
                t += float(rng.exponential(1.0 / rate))
                if t >= end:
                    t = end  # unused gap remainder is re-drawn next state
                    break
                times.append(t)
            bursting = not bursting
        return times

    def describe(self) -> str:
        return (f"bursty {self.base_rate:g}->{self.burst_rate:g} req/s "
                f"(dwell {self.mean_quiet_s:g}s/{self.mean_burst_s:g}s, "
                f"seed {self.seed})")


class DiurnalWorkload(Workload):
    """Sinusoidal rate ramp — one traffic "day" per *period_s*.

    The instantaneous rate swings between ``floor_frac * peak_rate``
    (the overnight trough, at t=0) and ``peak_rate`` (mid-period).
    Arrivals are generated by thinning a Poisson process at
    ``peak_rate``, the standard exact method for inhomogeneous rates.
    """

    name = "diurnal"

    def __init__(self, peak_rate: float, period_s: float = 10.0,
                 floor_frac: float = 0.1, seed: int = 0) -> None:
        if peak_rate <= 0:
            raise FrameworkError(
                f"peak_rate must be positive, got {peak_rate}")
        if period_s <= 0:
            raise FrameworkError(
                f"period_s must be positive, got {period_s}")
        if not 0.0 < floor_frac <= 1.0:
            raise FrameworkError(
                f"floor_frac must be in (0, 1], got {floor_frac}")
        self.peak_rate = float(peak_rate)
        self.period_s = float(period_s)
        self.floor_frac = float(floor_frac)
        self.seed = int(seed)

    def diurnal_phase(self, t: float) -> float:
        """Fraction of peak rate at time *t*, in ``[floor_frac, 1]``.

        The single source of truth for the day shape: the thinning
        generator accepts arrivals with this probability, and the
        predictive autoscale policy
        (:class:`~repro.cluster.autoscale.PredictivePolicy`) queries
        the same function to provision ahead of the modelled peak —
        the two can never drift apart.  Pure and deterministic:
        ``phase(t) == phase(t + period_s)``.
        """
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / self.period_s))
        return self.floor_frac + (1.0 - self.floor_frac) * swing

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time *t*."""
        return self.peak_rate * self.diurnal_phase(t)

    def arrival_times(self, n: int) -> list[float]:
        rng = _seeded_rng(
            self.seed,
            f"diurnal:{self.peak_rate}:{self.period_s}:"
            f"{self.floor_frac}")
        times: list[float] = []
        t = 0.0
        while len(times) < n:
            t += float(rng.exponential(1.0 / self.peak_rate))
            if float(rng.random()) < self.rate_at(t) / self.peak_rate:
                times.append(t)
        return times

    def describe(self) -> str:
        return (f"diurnal peak {self.peak_rate:g} req/s "
                f"(period {self.period_s:g}s, floor "
                f"{self.floor_frac:.0%}, seed {self.seed})")


class TraceWorkload(Workload):
    """Replay explicit arrival offsets (e.g. a recorded trace)."""

    name = "trace"

    def __init__(self, times: Sequence[float]) -> None:
        offsets = [float(t) for t in times]
        if not offsets:
            raise FrameworkError("trace has no arrivals")
        if any(t < 0 for t in offsets):
            raise FrameworkError("trace arrival times must be >= 0")
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise FrameworkError(
                "trace arrival times must be non-decreasing")
        self.times = offsets

    @classmethod
    def from_file(cls, path) -> "TraceWorkload":
        """Load a trace: one arrival offset (seconds) per line.

        Blank lines and ``#`` comments are skipped.
        """
        from pathlib import Path

        lines = Path(path).read_text().splitlines()
        offsets = [float(line.strip()) for line in lines
                   if line.strip() and not line.strip().startswith("#")]
        if not offsets:
            raise FrameworkError(f"{path}: no arrival times found")
        return cls(offsets)

    def arrival_times(self, n: int) -> list[float]:
        if n > len(self.times):
            raise FrameworkError(
                f"trace holds {len(self.times)} arrivals, {n} "
                "requested")
        return list(self.times[:n])

    def describe(self) -> str:
        return f"trace replay ({len(self.times)} arrivals)"
