"""Core of the discrete-event simulation kernel.

The design follows the classic process-interaction style: a *process* is
a Python generator that yields :class:`Event` objects; the
:class:`Environment` owns a single binary heap keyed by ``(time,
priority, seq)`` and resumes processes as their awaited events fire.
Cancellation is lazy: a cancelled entry stays in the heap, inert,
until it is popped or the heap is compacted.

Determinism contract: two events scheduled for the same simulated time
and priority fire in the order they were scheduled (``seq`` is a
monotonically increasing tie-breaker).  This makes every model built on
the kernel reproducible run-to-run, which the test-suite relies on.

The kernel is the innermost loop of every experiment, so the event
types are deliberately lean: ``__slots__`` everywhere (no per-instance
dicts), callback lists created lazily on first registration (most
events only ever get one), and a scheduler loop that touches the heap
directly.  None of this changes behaviour — the determinism contract
and event ordering are byte-identical to the straightforward
implementation, which the replay tests assert.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, SimulationError

#: Default event priority. Lower values fire earlier at equal timestamps.
NORMAL = 1
#: Priority used by urgent bookkeeping events (process resumption).
URGENT = 0

PENDING = object()  #: sentinel: event value not yet set
CANCELLED = object()  #: sentinel: scheduled event withdrawn via cancel()


class Event:
    """An occurrence at a point in simulated time.

    Events start *untriggered*; calling :meth:`succeed` or :meth:`fail`
    schedules them on the environment's queue.  Callbacks registered in
    :attr:`callbacks` run when the event is popped from the queue.

    :attr:`callbacks` is ``None`` until the first registration (and
    again once the event has been processed — check :attr:`processed`
    to tell the states apart); use :meth:`add_callback` to register
    without caring about the distinction.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused",
                 "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: set by Process when it fails so unhandled errors surface in run()
        self._defused = False
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register *fn* to run when the event is processed."""
        if self._processed:
            raise SimulationError(
                f"{self!r} already processed; callback would never run")
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = [fn]
        else:
            cbs.append(fn)

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.  If nothing waits on a failed event, :meth:`Environment.run`
        raises it at the event's fire time (no silently-lost errors).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, NORMAL, seq, self))
        return self

    # -- composition --------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires *delay* time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = None
        self._ok = True
        self._value = value
        self._defused = False
        self._processed = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, NORMAL, seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal: starts a Process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self._defused = False
        self._processed = False
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, URGENT, seq, self))


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        """The value passed to Process.interrupt()."""
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator; is itself an event that fires on completion.

    The generator may ``yield`` any :class:`Event`; the process resumes
    when that event fires, receiving the event's value (or having the
    event's exception thrown into it).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)
        if env.obs is not None:
            env.obs.process_started(self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks = [self._resume]
        self.env.schedule(event, URGENT)
        # Detach from the event the process was waiting on.
        target = self._target
        if target is not None:
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_proc = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env._seq = seq = env._seq + 1
                heappush(env._queue, (env._now, NORMAL, seq, self))
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._seq = seq = env._seq + 1
                heappush(env._queue, (env._now, NORMAL, seq, self))
                break

            if not isinstance(next_event, Event):
                env._active_proc = None
                raise SimulationError(
                    f"process yielded a non-event: {next_event!r}")
            if next_event.env is not env:
                env._active_proc = None
                raise SimulationError(
                    "process yielded an event from a different environment")

            if not next_event._processed:
                # Event still pending: register for resumption and suspend.
                cbs = next_event.callbacks
                if cbs is None:
                    next_event.callbacks = [self._resume]
                else:
                    cbs.append(self._resume)
                self._target = next_event
                break
            # Event already processed: continue immediately with its value.
            event = next_event
        env._active_proc = None
        if self._value is not PENDING and env.obs is not None:
            env.obs.process_finished(self)


class Condition(Event):
    """Composite event over a set of events (``&`` / ``|`` operators)."""

    __slots__ = ("_evaluate", "_events", "_count")

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        return count == len(events)

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        return count > 0 or not events

    def __init__(self, env: "Environment",
                 evaluate: Callable[[list[Event], int], bool],
                 events: Iterable[Event]) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events from different environments")
        if self._evaluate(self._events, 0):
            self.succeed(self._collect())
            return
        for event in self._events:
            if event._processed:
                self._check(event)
            else:
                cbs = event.callbacks
                if cbs is None:
                    event.callbacks = [self._check]
                else:
                    cbs.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self._events
                if e.triggered and e._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())


class Environment:
    """Execution environment: simulated clock plus the event queue.

    The queue is a single binary heap of ``(time, priority, seq,
    event)`` entries, so events fire in exactly ascending ``(time,
    priority, seq)`` order.  Cancelled entries are deleted lazily:
    they stay in the heap, inert, until they surface or until
    :meth:`compact` sweeps them out.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        #: Scheduled-but-cancelled events still occupying the queue;
        #: compacted away once they outnumber the live entries.
        self._cancelled = 0
        self._active_proc: Optional[Process] = None
        #: Optional observability session (see repro.obs.ObsSession).
        #: When None — the default — instrumentation points across the
        #: models reduce to a single attribute check, keeping the
        #: no-tracing path zero-cost.  Set via ObsSession.attach(env).
        self.obs: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after *delay* time units."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """Create an event firing at the absolute simulated time *when*.

        For callers that accumulate a fire time themselves: in floating
        point ``now + (s1 + s2)`` need not equal ``(now + s1) + s2``, so
        landing exactly where consecutive timeouts would have landed
        takes the caller's own left-to-right sum, scheduled here as is.
        """
        if not when >= self._now:
            raise ValueError(f"when={when} is in the past (now={self._now})")
        event = Event(self)
        event._ok = True
        event._value = value
        self._seq = seq = self._seq + 1
        heappush(self._queue, (when, NORMAL, seq, event))
        return event

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new process from *generator*."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires when every event in *events* has fired."""
        return Condition(self, Condition.all_events, events)

    def any_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires when at least one event in *events* fires."""
        return Condition(self, Condition.any_events, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Place *event* on the queue to fire after *delay*."""
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def cancel(self, event: Event) -> None:
        """Withdraw a scheduled event: its callbacks never run and its
        value is discarded (replaced by an internal sentinel).

        The queue entry is lazily deleted — it stays in place, inert,
        until either its fire time arrives (firing a cancelled event
        is a no-op) or cancelled entries outnumber live ones, at which
        point the queue is compacted in one pass.  Cancelling an
        already-processed or already-cancelled event is a no-op;
        cancelling an event that was never scheduled is an error (use
        :meth:`~repro.sim.resources.Store.cancel` for store waiters).
        """
        if event._value is PENDING:
            raise SimulationError(
                f"cannot cancel {event!r}: not scheduled")
        if event._processed or event._value is CANCELLED:
            return
        event._value = CANCELLED
        event._ok = True
        event._defused = True
        event.callbacks = None
        self._cancelled += 1
        if self._cancelled * 2 > len(self._queue):
            self.compact()

    def compact(self) -> int:
        """Drop cancelled entries from the queue; returns the number
        removed.  Called automatically by :meth:`cancel` once
        cancelled entries exceed half the queue."""
        kept = [entry for entry in self._queue
                if entry[3]._value is not CANCELLED]
        removed = len(self._queue) - len(kept)
        if removed:
            heapify(kept)
            # In-place: the run loop holds a reference to the list.
            self._queue[:] = kept
        self._cancelled = 0
        return removed

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise DeadlockError("event queue is empty")
        self._now, _, _, event = heappop(self._queue)
        event._processed = True
        callbacks = event.callbacks
        if callbacks is not None:
            event.callbacks = None
            for callback in callbacks:
                callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody handled: surface it.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (drain the queue), a number (run up to
        that simulated time), or an :class:`Event` (run until it fires,
        returning its value).
        """
        stop_at = float("inf")
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event._processed:
                    return stop_event.value
            else:
                stop_at = float(until)
                if stop_at < self._now:
                    raise ValueError(
                        f"until={stop_at} is in the past (now={self._now})")

        # The loop below is :meth:`step` inlined (minus the empty-queue
        # guard, which the while condition covers): one Python frame per
        # event instead of two matters at millions of events per run.
        queue = self._queue
        pop = heappop
        if stop_event is not None and stop_at == float("inf"):
            # Fast path for the common run-until-event case: no
            # per-step time-horizon comparison.
            while queue and not stop_event._processed:
                self._now, _, _, event = pop(queue)
                event._processed = True
                callbacks = event.callbacks
                if callbacks is not None:
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        else:
            while queue:
                if stop_event is not None and stop_event._processed:
                    break
                if queue[0][0] > stop_at:
                    self._now = stop_at
                    return None
                self._now, _, _, event = pop(queue)
                event._processed = True
                callbacks = event.callbacks
                if callbacks is not None:
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value

        if stop_event is not None:
            if not stop_event.triggered:
                raise DeadlockError(
                    "simulation ended before the awaited event fired")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if stop_at != float("inf"):
            self._now = stop_at
        return None
