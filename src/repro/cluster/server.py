"""The cluster frontend: shard, spill, re-shard, scale, account.

:class:`ClusterServer` is the rank-0 process of a simulated serving
cluster.  A pool of host *slots* (each a target that can be booted
into a :class:`~repro.cluster.host.HostRank`) sits behind it; live
hosts get one bounded :class:`~repro.mpi.stream.StreamWindow` shard
channel each, all on one :class:`~repro.mpi.comm.Communicator` sized
for the whole pool so every push pays the modelled interconnect cost.

Routing is consistent-hash first, load-spill second: a request maps
to its sticky host on the :class:`~repro.cluster.hashring.HashRing`;
when that shard's outstanding work (frontend ledger: pushed but not
yet resolved) exceeds ``spill_threshold``, the request spills to the
least-outstanding live host instead.  Backpressure is per shard — a
full stream window blocks that shard's pushes without stalling the
arrival clock or the other shards.

**Elastic scaling** (see :mod:`repro.cluster.autoscale`): the host
set is live-mutable.  ``scale_out`` activates a pool slot — instantly
when the slot is warm (target already prepared), after a cold boot
otherwise — and adds it to the ring, where the minimal-remap property
means only the keys moving *to* the new host change owner.
``drain_host`` is the zero-loss scale-in: the host leaves the ring
(no new sticky or spilled traffic), serves down its owned backlog as
a lame duck, and shuts down orderly once the ledger shows zero
outstanding; if the drain grace expires first, the leftover backlog
takes the exact kill/re-shard path below — re-sharded, never lost.
A drained slot's target stays booted, so the slot re-enters the warm
pool and a later scale-out revives it as a fresh host generation.

Host failure reuses :class:`~repro.ncsw.faults.FaultPlan`, with the
``device_index`` read as a pool-slot index: at the fault time the
slot's live rank dies mid-flight.  The frontend then aborts the shard
channel, prunes the ring, marks the host dead in the
:class:`~repro.ncs.health.HealthMonitor`, collects every request the
dead host owned but never resolved, wipes their partial timestamps
(:meth:`~repro.serve.workload.Request.reset_for_reshard`) and
re-shards them to the survivors — or abandons them at the frontend
when no survivor remains.  Either way the ownership ledger keeps the
exactly-once invariant: the returned
:class:`~repro.cluster.result.ClusterResult` proves it in its
constructor.

Determinism: seeded workload + seeded fault plan + scripted or
policy-driven scale events on the sim clock + the DES kernel's
determinism contract = byte-identical cluster reports run to run.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.cluster.autoscale import (
    SCALE_IN,
    SCALE_OUT,
    Autoscaler,
    AutoscaleSignal,
    ScaleEvent,
    ScalePlan,
)
from repro.cluster.hashring import HashRing
from repro.cluster.host import HostRank
from repro.cluster.result import ClusterResult, HostShard
from repro.errors import FrameworkError
from repro.mpi.comm import (
    LINK_BANDWIDTH_BYTES_S,
    LINK_LATENCY_S,
    Communicator,
)
from repro.mpi.stream import StreamWindow
from repro.ncs.health import HealthMonitor
from repro.ncsw.faults import DEATH, FailureEvent, FaultPlan
from repro.ncsw.targets import TargetDevice
from repro.serve.queue import POLICIES as ADMISSION_POLICIES
from repro.serve.queue import REJECT_NEWEST
from repro.serve.server import DEFAULT_MAX_WAIT_S
from repro.serve.workload import ABANDONED, COMPLETED, Request, Workload
from repro.sim.core import Environment, Event

#: Default per-shard stream window (requests in flight on the wire
#: plus buffered at the host, before pushes block).
DEFAULT_WINDOW = 8

#: Default lame-duck drain grace before the leftover backlog is
#: force-re-sharded (seconds on the sim clock).
DEFAULT_DRAIN_GRACE_S = 0.25


class _Slot:
    """One pool slot: a target and its current host generation."""

    __slots__ = ("index", "target", "prepare_event", "booting",
                 "host", "generation")

    def __init__(self, index: int, target: TargetDevice) -> None:
        self.index = index
        self.target = target
        #: The target's prepare event; None until first boot starts.
        self.prepare_event: Optional[Event] = None
        #: True while a scale-out is waiting on this slot's boot.
        self.booting = False
        #: The slot's live (or draining) HostRank, or None.
        self.host: Optional[HostRank] = None
        #: Host generations this slot has served (names the revival).
        self.generation = 0

    @property
    def warm(self) -> bool:
        """Prepared and idle: activation costs nothing."""
        return (self.host is None and not self.booting
                and self.prepare_event is not None
                and self.prepare_event.processed)

    @property
    def selectable(self) -> bool:
        """Can a scale-out take this slot right now."""
        return self.host is None and not self.booting


class ClusterServer:
    """Sharded multi-host serving over simulated MPI channels."""

    def __init__(self, targets: Sequence[TargetDevice], *,
                 window: int = DEFAULT_WINDOW,
                 replicas: int = 64,
                 spill_threshold: Optional[int] = None,
                 queue_depth: Optional[int] = 64,
                 admission: str = REJECT_NEWEST,
                 max_batch_size: Optional[int] = None,
                 max_wait_s: float = DEFAULT_MAX_WAIT_S,
                 slo_seconds: Optional[float] = 0.250,
                 deadline_seconds: Optional[float] = None,
                 max_redirects: int = 1,
                 ewma_alpha: float = 0.2,
                 warmup: int = 0,
                 host_faults: Optional[FaultPlan] = None,
                 autoscaler: Optional[Autoscaler] = None,
                 scale_plan: Optional[ScalePlan] = None,
                 initial_hosts: Optional[int] = None,
                 warm_pool: Optional[int] = None,
                 drain_grace_s: float = DEFAULT_DRAIN_GRACE_S,
                 latency_s: float = LINK_LATENCY_S,
                 bandwidth: float = LINK_BANDWIDTH_BYTES_S,
                 obs=None) -> None:
        if not targets:
            raise FrameworkError("cluster needs at least one host")
        if admission not in ADMISSION_POLICIES:
            raise FrameworkError(
                f"unknown admission policy {admission!r}; one of "
                f"{ADMISSION_POLICIES}")
        if slo_seconds is not None and slo_seconds <= 0:
            raise FrameworkError(
                f"slo_seconds must be positive, got {slo_seconds}")
        if warmup < 0:
            raise FrameworkError("warmup must be >= 0")
        if spill_threshold is not None and spill_threshold < 1:
            raise FrameworkError(
                f"spill_threshold must be >= 1, got {spill_threshold}")
        if host_faults is not None:
            for fault in host_faults.faults:
                if fault.kind != DEATH:
                    raise FrameworkError(
                        f"host faults support kind {DEATH!r} only "
                        f"(whole-rank death), got {fault.kind!r}; "
                        "inject hang/thermal/busy at device level "
                        "via the host target's fault plan")
                if fault.device_index >= len(targets):
                    raise FrameworkError(
                        f"host fault targets host "
                        f"{fault.device_index} but the cluster has "
                        f"{len(targets)} hosts")
        if scale_plan is not None:
            for action in scale_plan.actions:
                if (action.slot is not None
                        and action.slot >= len(targets)):
                    raise FrameworkError(
                        f"scale plan drains slot {action.slot} but "
                        f"the pool has {len(targets)} slots")
        if initial_hosts is None:
            initial_hosts = (autoscaler.min_hosts
                             if autoscaler is not None
                             else len(targets))
        if not 1 <= initial_hosts <= len(targets):
            raise FrameworkError(
                f"initial_hosts must be in [1, {len(targets)}], "
                f"got {initial_hosts}")
        if warm_pool is None:
            warm_pool = (autoscaler.warm_pool
                         if autoscaler is not None else 0)
        if warm_pool < 0:
            raise FrameworkError(
                f"warm_pool must be >= 0, got {warm_pool}")
        if drain_grace_s <= 0:
            raise FrameworkError(
                f"drain_grace_s must be positive, got {drain_grace_s}")
        self.targets = list(targets)
        self.window = window
        self.replicas = replicas
        # Default spill point: the shard's own pipeline capacity —
        # channel window plus admission queue.  Beyond that, queued
        # work on the sticky host is pure wait; a less-loaded host
        # wins even at the cost of breaking stickiness.
        self.spill_threshold = (
            spill_threshold if spill_threshold is not None
            else window + (queue_depth if queue_depth is not None
                           else 3 * window))
        self.queue_depth = queue_depth
        self.admission = admission
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.slo_seconds = slo_seconds
        self.deadline_seconds = deadline_seconds
        self.max_redirects = max_redirects
        self.ewma_alpha = ewma_alpha
        self.warmup = warmup
        self.host_faults = host_faults
        self.autoscaler = autoscaler
        self.scale_plan = scale_plan
        self.initial_hosts = initial_hosts
        self.warm_pool = warm_pool
        self.drain_grace_s = drain_grace_s
        self.latency_s = latency_s
        self.bandwidth = bandwidth
        self.obs = obs
        #: Health trail of the last run (host-level transitions).
        self.health: Optional[HealthMonitor] = None

    # -- the run ---------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once every offered request has resolved."""
        return getattr(self, "_finished", False)

    def run(self, workload: Workload,
            num_requests: int) -> ClusterResult:
        """Serve *num_requests* across the hosts; blocks until every
        request resolved cluster-wide and returns the roll-up."""
        requests = workload.requests(
            num_requests, deadline_s=self.deadline_seconds)

        env = Environment()
        if self.obs is not None:
            self.obs.attach(env)
        self._env = env

        pool = len(self.targets)
        comm = Communicator(env, size=pool + 1,
                            latency_s=self.latency_s,
                            bandwidth=self.bandwidth)
        self._comm = comm
        self._slots = [_Slot(i, target)
                       for i, target in enumerate(self.targets)]
        #: Every host generation ever activated, in activation order.
        self.hosts: list[HostRank] = []
        self._by_name: dict[str, HostRank] = {}
        #: Live, non-draining hosts — the routing set (and the ring's
        #: exact membership).
        self._routable: dict[str, HostRank] = {}
        self.ring: Optional[HashRing] = None
        self.health = HealthMonitor(env)
        # Ownership ledger: request id -> (request, owning host), from
        # push initiation until resolution.  The single source of
        # truth for what a dead host strands — channel buffers and
        # queue contents alone undercount in-flight work.
        self._owned: dict[int, tuple[Request, HostRank]] = {}
        self._outstanding: dict[str, int] = {}
        self._drain_done: dict[str, Event] = {}
        self._booting = 0
        self._offered = len(requests)
        self._resolved = 0
        self._all_resolved = env.event()
        self._abandoned: list[Request] = []
        self.failures: list[FailureEvent] = []
        self.scale_events: list[ScaleEvent] = []
        self.sharded = 0
        self.spilled = 0
        self.resharded = 0
        self._finished = False
        self._lifecycles: list[Event] = []
        self._epoch = 0.0
        if self.autoscaler is not None:
            self.autoscaler.reset()

        def main() -> Generator[Event, None, tuple[float, float]]:
            obs = env.obs
            prep = None
            if obs is not None:
                prep = obs.tracer.begin("prepare", track="cluster",
                                        hosts=self.initial_hosts)
            # Boot the initial actives; pre-warm the next warm_pool
            # slots concurrently (their boots overlap the actives' —
            # serving starts when the actives are up).
            boots = [self._slot_prepare(self._slots[i])
                     for i in range(self.initial_hosts)]
            for slot in self._slots[self.initial_hosts:
                                    self.initial_hosts
                                    + self.warm_pool]:
                self._slot_prepare(slot)
            yield env.all_of(boots)
            if obs is not None:
                obs.tracer.end(prep)
            for i in range(self.initial_hosts):
                self._activate(self._slots[i], reason="initial",
                               record=False)
            t0 = env.now
            self._epoch = t0
            if self.host_faults is not None:
                for fault in self.host_faults.faults:
                    env.process(self._inject_host_fault(fault))
            if self.scale_plan is not None:
                for action in self.scale_plan.actions:
                    env.process(self._inject_scale_action(action))
            if self.autoscaler is not None:
                env.process(self.autoscaler.run(self))
            yield env.process(self._arrivals(requests))
            yield self._all_resolved
            self._finished = True
            wall = env.now - t0
            # Orderly shutdown of the survivors: close each shard
            # channel (EOS), which cascades queue close -> batcher
            # pill -> backend pill down each host's lifecycle.  Dead
            # hosts' lifecycles already completed at their death, and
            # drained hosts closed their own channel at drain end.
            for host in self.hosts:
                if not host.dead and not host.stream.closed:
                    host.stream.close()
            yield env.all_of(self._lifecycles)
            return wall, t0

        wall, epoch = env.run(until=env.process(main()))

        total_completed = sum(h.completed for h in self.hosts)
        shards = [HostShard(rank=h.rank, name=h.name,
                            result=h.result(self.slo_seconds, wall,
                                            epoch),
                            killed_at=h.died_at,
                            resharded=h.resharded,
                            activated_at=h.activated_at,
                            drained_at=h.drained_at)
                  for h in self.hosts]
        return ClusterResult(
            offered=self._offered,
            shards=shards,
            wall_seconds=wall,
            prepare_seconds=epoch,
            slo_seconds=self.slo_seconds,
            warmup=min(self.warmup, total_completed),
            frontend_abandoned=len(self._abandoned),
            abandoned_requests=self._abandoned,
            failures=self.failures,
            sharded=self.sharded,
            spilled=self.spilled,
            resharded=self.resharded,
            scale_events=list(self.scale_events),
            pool_hosts=pool,
        )

    # -- slot lifecycle (boot / activate / revive) -----------------------
    def _slot_prepare(self, slot: _Slot) -> Event:
        """Start (or reuse) the slot target's boot; returns its
        prepare event.  A drained slot's target stays booted, so its
        event is already processed and revival is instant."""
        if slot.prepare_event is None:
            slot.prepare_event = slot.target.prepare(self._env)
        return slot.prepare_event

    def _activate(self, slot: _Slot, reason: str,
                  record: bool = True) -> HostRank:
        """Bring a prepared slot into the serving set, live."""
        env = self._env
        gen = slot.generation
        slot.generation += 1
        name = (f"host{slot.index}" if gen == 0
                else f"host{slot.index}r{gen}")
        host = HostRank(
            env, rank=slot.index + 1, name=name,
            target=slot.target,
            stream=StreamWindow(self._comm, source=0,
                                dest=slot.index + 1,
                                window=self.window),
            on_resolve=self._on_resolve,
            queue_depth=self.queue_depth,
            admission=self.admission,
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            max_redirects=self.max_redirects,
            ewma_alpha=self.ewma_alpha)
        host.slot = slot.index
        host.activated_at = env.now
        slot.host = host
        self.hosts.append(host)
        self._by_name[name] = host
        self._outstanding[name] = 0
        self._routable[name] = host
        self.health.register(name)
        if self.ring is None:
            self.ring = HashRing([name], replicas=self.replicas)
        else:
            self.ring.add(name)
        self._lifecycles.append(host.start())
        if record:
            self._record_scale(SCALE_OUT, name, reason)
        self._gauge_live()
        return host

    def scale_out(self, reason: str = "") -> Optional[int]:
        """Activate one pool slot; returns its index, or None when no
        slot is available.  Warm slots win (instant activation); a
        cold slot pays its boot before joining the ring."""
        if self._finished:
            return None
        slot = self._pick_slot()
        if slot is None:
            return None
        slot.booting = True
        self._booting += 1
        self._env.process(self._boot_and_activate(slot, reason))
        self._replenish_warm()
        return slot.index

    def _pick_slot(self) -> Optional[_Slot]:
        """Next slot for a scale-out: warm first, then a boot already
        in flight, then cold — lowest index within each tier."""
        warm = [s for s in self._slots if s.warm]
        if warm:
            return warm[0]
        warming = [s for s in self._slots
                   if s.selectable and s.prepare_event is not None]
        if warming:
            return warming[0]
        cold = [s for s in self._slots if s.selectable]
        return cold[0] if cold else None

    def _boot_and_activate(self, slot: _Slot, reason: str
                           ) -> Generator[Event, None, None]:
        event = self._slot_prepare(slot)
        if not event.processed:
            yield event
        slot.booting = False
        self._booting -= 1
        if self._finished:
            return
        self._activate(slot, reason)

    def _replenish_warm(self) -> None:
        """Keep ``warm_pool`` idle slots pre-initialised: when a warm
        slot is consumed, start boiling the next cold one."""
        if self.warm_pool == 0:
            return
        ready = sum(1 for s in self._slots
                    if s.selectable and s.prepare_event is not None)
        for slot in self._slots:
            if ready >= self.warm_pool:
                break
            if slot.selectable and slot.prepare_event is None:
                self._slot_prepare(slot)
                ready += 1

    # -- scale-in drain --------------------------------------------------
    def drain_host(self, host: Optional[HostRank] = None,
                   reason: str = "") -> Optional[HostRank]:
        """Zero-loss scale-in of one live host.

        The host leaves the ring immediately (minimal remap: only its
        keys move) and the spill set, then serves down its owned
        backlog as a lame duck.  :meth:`_drain` finishes the job —
        orderly shutdown at zero outstanding, or a forced re-shard of
        the leftovers after ``drain_grace_s``.  Refuses to drain the
        last routable host; returns the draining host or None.
        """
        if self._finished or len(self._routable) <= 1:
            return None
        if host is None:
            host = min(self._routable.values(),
                       key=lambda h: (self._outstanding[h.name],
                                      -h.rank))
        elif host.name not in self._routable:
            return None
        host.draining = True
        del self._routable[host.name]
        self.ring.remove(host.name)
        slot = self._slots[host.slot]
        self._record_scale(SCALE_IN, host.name, reason)
        self._gauge_live()
        self._env.process(self._drain(host, slot))
        return host

    def _drain(self, host: HostRank, slot: _Slot
               ) -> Generator[Event, None, None]:
        env = self._env
        if self._outstanding[host.name] > 0:
            done = env.event()
            self._drain_done[host.name] = done
            yield done | env.timeout(self.drain_grace_s)
            self._drain_done.pop(host.name, None)
        if host.dead:
            return  # killed mid-drain: the fault path took over
        if self._outstanding[host.name] > 0:
            # Grace expired with work still owned: the kill/re-shard
            # path finishes the drain — halted mid-flight, stranded
            # requests re-shard to the survivors, nothing is lost.
            host.kill()
            host.died_at = None  # a drain, not a death
            self.health.mark_dead(host.name,
                                  reason="drained (scale-in, forced)")
            stranded = self._strand(host)
            host.drained_at = env.now
            host.draining = False
            host.resharded = len(stranded)
            slot.host = None
            obs = env.obs
            if obs is not None:
                obs.tracer.instant("host_drained", track="cluster",
                                   host=host.name, rank=host.rank,
                                   stranded=len(stranded))
                for request in stranded:
                    obs.reqtrace.hop(request.trace, "resharded",
                                     track="cluster", host=host.name)
            if stranded:
                if self._routable:
                    self.resharded += len(stranded)
                    if obs is not None:
                        obs.metrics.counter(
                            "cluster.resharded").inc(len(stranded))
                    env.process(self._reshard(stranded))
                else:
                    for request in stranded:
                        self._frontend_abandon(request)
            return
        # Clean drain: everything resolved, shut the rank down
        # orderly (EOS cascades queue close -> batcher -> backend).
        host.drained_at = env.now
        host.draining = False
        self.health.mark_dead(host.name, reason="drained (scale-in)")
        if not host.stream.closed:
            host.stream.close()
        slot.host = None
        obs = env.obs
        if obs is not None:
            obs.tracer.instant("host_drained", track="cluster",
                               host=host.name, rank=host.rank,
                               stranded=0)

    # -- scale signals / bookkeeping -------------------------------------
    def autoscale_signal(self) -> AutoscaleSignal:
        """Snapshot of the signals a scale policy decides on."""
        env = self._env
        total = sum(self._outstanding[name]
                    for name in self._routable)
        rolling = (self.autoscaler.rolling_p99()
                   if self.autoscaler is not None else None)
        return AutoscaleSignal(
            time=env.now,
            since_epoch=env.now - self._epoch,
            live=len(self._routable),
            booting=self._booting,
            addable=sum(1 for s in self._slots if s.selectable),
            total_outstanding=total,
            rolling_p99=rolling,
            slo_seconds=self.slo_seconds)

    def _record_scale(self, action: str, host: str,
                      reason: str) -> None:
        event = ScaleEvent(time=self._env.now, action=action,
                           host=host, reason=reason,
                           live_after=len(self._routable))
        self.scale_events.append(event)
        obs = self._env.obs
        if obs is not None:
            key = ("cluster.scale_out" if action == SCALE_OUT
                   else "cluster.scale_in")
            obs.metrics.counter(key).inc()
            obs.tracer.instant(action.replace("-", "_"),
                               track="cluster", host=host,
                               live=event.live_after)

    def _gauge_live(self) -> None:
        obs = self._env.obs
        if obs is not None:
            obs.metrics.gauge("cluster.live_hosts").set(
                len(self._routable))

    def _inject_scale_action(self, action
                             ) -> Generator[Event, None, None]:
        """Scripted scale injector (the ScalePlan twin of faults)."""
        env = self._env
        if action.at > env.now:
            yield env.timeout(action.at - env.now)
        if self._finished:
            return
        if action.action == "out":
            self.scale_out(reason=f"plan @ {action.at:g}s")
            return
        host = None
        if action.slot is not None:
            host = self._slots[action.slot].host
            if (host is None or host.dead or host.draining
                    or host.name not in self._routable):
                return
        self.drain_host(host, reason=f"plan @ {action.at:g}s")

    # -- arrivals and routing -------------------------------------------
    def _arrivals(self, requests: list[Request]
                  ) -> Generator[Event, None, None]:
        """Open-loop arrivals, rebased onto the sim clock at rank 0."""
        env = self._env
        obs = env.obs
        epoch = env.now
        for request in requests:
            request.arrival_time += epoch
            if request.deadline_at is not None:
                request.deadline_at += epoch
            if request.arrival_time > env.now:
                yield env.timeout(request.arrival_time - env.now)
            if obs is not None:
                obs.metrics.counter("cluster.offered").inc()
                obs.reqtrace.begin(
                    request, track="cluster",
                    t=obs.tracer.timestamp(request.arrival_time))
            self._dispatch(request)

    def _dispatch(self, request: Request) -> Optional[Event]:
        """Shard one request; abandon it when no live host remains."""
        host = self._route(request)
        if host is None:
            self._frontend_abandon(request)
            return None
        return self._send(host, request)

    def _route(self, request: Request) -> Optional[HostRank]:
        """Sticky host by consistent hash, spill on backlog."""
        if not self._routable:
            return None
        preferred = self._by_name[self.ring.lookup(request.request_id)]
        if self._outstanding[preferred.name] < self.spill_threshold:
            return preferred
        choice = min(self._routable.values(),
                     key=lambda h: (self._outstanding[h.name],
                                    h.rank))
        if choice is not preferred:
            self.spilled += 1
            obs = self._env.obs
            if obs is not None:
                obs.metrics.counter("cluster.spilled").inc()
        return choice

    def _send(self, host: HostRank, request: Request) -> Event:
        """Push to a shard channel and take ownership note."""
        self._owned[request.request_id] = (request, host)
        self._outstanding[host.name] += 1
        self.sharded += 1
        obs = self._env.obs
        if obs is not None:
            obs.metrics.counter("cluster.sharded").inc()
            obs.metrics.gauge(
                f"cluster.outstanding.{host.name}").set(
                    self._outstanding[host.name])
            obs.reqtrace.hop(request.trace, "sharded",
                             track="cluster", host=host.name,
                             rank=host.rank)
        return host.stream.push(request)

    # -- resolution ------------------------------------------------------
    def _on_resolve(self, host: HostRank, request: Request) -> None:
        """A host resolved a request it owned (any terminal state)."""
        entry = self._owned.pop(request.request_id, None)
        if entry is None:
            raise FrameworkError(
                f"request {request.request_id} resolved by "
                f"{host.name} but not in the ownership ledger: the "
                "cluster exactly-once invariant is broken")
        owner = entry[1]
        self._outstanding[owner.name] -= 1
        if (self.autoscaler is not None
                and request.status == COMPLETED
                and request.e2e_latency is not None):
            self.autoscaler.note_completion(request.e2e_latency)
        if (owner.draining
                and self._outstanding[owner.name] == 0):
            done = self._drain_done.get(owner.name)
            if done is not None and not done.triggered:
                done.succeed()
        obs = self._env.obs
        if obs is not None:
            obs.metrics.gauge(
                f"cluster.outstanding.{owner.name}").set(
                    self._outstanding[owner.name])
        self._count_resolved()

    def _frontend_abandon(self, request: Request) -> None:
        """No live host: the frontend is the terminal resolver."""
        request.status = ABANDONED
        self._abandoned.append(request)
        obs = self._env.obs
        if obs is not None:
            obs.metrics.counter("cluster.abandoned").inc()
            obs.tracer.instant("request_abandoned", track="cluster",
                               request=request.request_id)
            obs.reqtrace.hop(request.trace, "frontend_abandoned",
                             track="cluster")
        self._count_resolved()

    def _count_resolved(self) -> None:
        self._resolved += 1
        if self._resolved > self._offered:
            raise FrameworkError(
                "request resolved twice: cluster accounting is "
                "broken")
        if self._resolved == self._offered:
            self._all_resolved.succeed()

    # -- host failure ----------------------------------------------------
    def _inject_host_fault(self, fault
                           ) -> Generator[Event, None, None]:
        """Fault-plan injector: kill one whole rank at its time.

        ``device_index`` names a pool slot; the kill lands on that
        slot's live generation (a no-op if the slot is idle)."""
        env = self._env
        if fault.at > env.now:
            yield env.timeout(fault.at - env.now)
        host = self._slots[fault.device_index].host
        if host is not None:
            self._kill_host(host)

    def _strand(self, host: HostRank) -> list[Request]:
        """Pull every request *host* owned but never resolved out of
        the ledger, reset for re-serving, and hand them back."""
        stranded = sorted(
            (req for req, owner in self._owned.values()
             if owner is host),
            key=lambda r: r.request_id)
        for request in stranded:
            del self._owned[request.request_id]
            self._outstanding[host.name] -= 1
            request.reset_for_reshard()
        obs = self._env.obs
        if stranded and obs is not None:
            # The dead host's ledger gauge must follow the drain to
            # zero, or it reads as permanent backlog ever after.
            obs.metrics.gauge(
                f"cluster.outstanding.{host.name}").set(
                    self._outstanding[host.name])
        done = self._drain_done.get(host.name)
        if done is not None and not done.triggered:
            done.succeed()
        return stranded

    def _kill_host(self, host: HostRank) -> None:
        """Death of a rank: drain, re-shard, account — lose nothing."""
        if host.dead:
            return
        env = self._env
        host.kill()
        host.draining = False
        self.health.mark_dead(host.name, reason="host fault injected")
        if host.name in self._routable:
            del self._routable[host.name]
            self.ring.remove(host.name)
        if host.slot is not None:
            slot = self._slots[host.slot]
            if slot.host is host:
                # A killed slot's hardware is gone: it never returns
                # to the warm pool (unlike a drained one).
                slot.host = host
        # Everything the dead host owned but never resolved: channel
        # backlog, queued, batching, in-flight — the ledger sees all.
        stranded = self._strand(host)
        event = FailureEvent(
            device=host.name, worker=f"rank{host.rank}",
            time=env.now, kind=DEATH,
            detail=(f"rank {host.rank} killed mid-serve; "
                    f"{len(stranded)} owned requests stranded"),
            requeued=len(stranded), scope="host")
        host.failure = event
        host.resharded = len(stranded)
        self.failures.append(event)
        self._gauge_live()
        obs = env.obs
        if obs is not None:
            obs.metrics.counter("cluster.host_deaths").inc()
            obs.tracer.instant("host_killed", track="cluster",
                               host=host.name, rank=host.rank,
                               stranded=len(stranded))
            for request in stranded:
                obs.reqtrace.hop(request.trace, "resharded",
                                 track="cluster", host=host.name)
        if not stranded:
            return
        if self._routable:
            self.resharded += len(stranded)
            if obs is not None:
                obs.metrics.counter("cluster.resharded").inc(
                    len(stranded))
            env.process(self._reshard(stranded))
        else:
            for request in stranded:
                self._frontend_abandon(request)

    def _reshard(self, stranded: list[Request]
                 ) -> Generator[Event, None, None]:
        """Re-inject stranded requests, one push at a time.

        Serial re-injection keeps the survivors' backpressure honest:
        each push waits for its window slot before the next request
        commits to a host, so a mass re-shard cannot teleport a dead
        host's whole backlog past the channel bound.
        """
        for request in stranded:
            event = self._dispatch(request)
            if event is not None:
                yield event
