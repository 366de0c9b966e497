"""Shared resources for the DES kernel.

Two primitives cover every contention point in the simulator:

* :class:`Resource` — a counted semaphore with FIFO queueing (USB link
  slots, SHAVE processors, host threads).
* :class:`Store` — a FIFO buffer of Python objects with blocking put/get
  (inference FIFOs on the NCS, channels between pipeline stages).
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError
from repro.sim.core import CANCELLED, PENDING, Environment, Event


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Event.__init__ inlined: requests are created on the sim's
        # innermost loop and the extra frame is measurable.
        self.env = resource.env
        self.callbacks = None
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._processed = False
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)


class Resource:
    """Counted resource with *capacity* slots and a FIFO queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Ask for a slot; returns an event that fires on acquisition."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a slot previously granted to *request*.

        Releasing a request that was never granted cancels it (removes it
        from the wait queue); releasing twice is a no-op.
        """
        try:
            self.users.remove(request)
        except ValueError:
            try:
                self.queue.remove(request)
            except ValueError:
                return
            return
        self._grant_next()

    # -- internals ----------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.pop(0)
            if request._value is not PENDING:
                continue  # cancelled while waiting
            self.users.append(request)
            request.succeed()


class StorePut(Event):
    """Pending insertion into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        self.env = store.env
        self.callbacks = None
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._processed = False
        self.item = item


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        self.env = store.env
        self.callbacks = None
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._processed = False


class Store:
    """FIFO object buffer with optional capacity bound.

    ``put`` blocks when the store is full; ``get`` blocks while it is
    empty and takes the oldest item.
    """

    def __init__(self, env: Environment,
                 capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._putters: list[StorePut] = []
        self._getters: list[StoreGet] = []
        #: Cancelled waiters still sitting in the lists above (lazy
        #: delete); compacted once they outnumber the live waiters.
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert *item*; the returned event fires once it is stored."""
        event = StorePut(self, item)
        # Fast path: room available and nobody queued ahead — admit
        # directly, then wake a blocked getter if any.  Identical event
        # ordering to the general dispatch (put succeeds, then gets).
        if not self._putters and len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
            if self._getters:
                self._dispatch()
        else:
            self._putters.append(event)
            self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Remove and return the oldest item; event fires with the item
        as value."""
        event = StoreGet(self)
        # Fast path: an item is available and nobody is queued ahead —
        # serve directly, then admit a blocked putter into the freed
        # slot.  Identical event ordering to the general dispatch.
        if not self._getters and self.items:
            event.succeed(self.items.pop(0))
            if self._putters:
                self._dispatch()
            return event
        self._getters.append(event)
        self._dispatch()
        return event

    def put_front(self, item: Any) -> StorePut:
        """Insert *item* at the head of the FIFO, jumping the queue.

        Failover uses this to hand back a drained in-flight item so it
        is retried before untouched work.  Unlike :meth:`put` this
        never blocks: a full store raises instead, since queue-jumping
        a full buffer has no sensible wait semantics.
        """
        if len(self.items) >= self.capacity:
            raise SimulationError(
                "put_front on a full store (capacity "
                f"{self.capacity})")
        event = StorePut(self, item)
        self.items.insert(0, item)
        event.succeed()
        self._dispatch()  # a blocked getter may now be servable
        return event

    def cancel(self, event: Event) -> None:
        """Withdraw a pending :meth:`put` or :meth:`get` request.

        A process racing a ``get`` against a timer must cancel the
        losing ``get``, otherwise the stranded getter silently
        swallows a later item that nobody will ever read.  Cancelling
        an already-triggered event is a no-op (its value stands).

        The waiter-list entry is lazily deleted: the event is marked
        with an internal sentinel (O(1) — no ``list.remove`` scan) and
        skipped by the dispatcher; once cancelled entries outnumber
        live waiters, both lists are compacted in one pass.  This
        keeps cancel-heavy deadline races (the common serve pattern:
        most SLO timers are cancelled by completion) linear instead of
        quadratic.
        """
        if event.triggered:
            return
        if not isinstance(event, (StoreGet, StorePut)):
            raise SimulationError(
                f"cannot cancel {event!r}: not a store put/get")
        event._value = CANCELLED
        event._ok = True
        event._defused = True
        event.callbacks = None
        self._cancelled += 1
        if self._cancelled * 2 > len(self._putters) + len(self._getters):
            self._compact()

    # -- internals ----------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled waiters from both lists in one pass."""
        self._putters[:] = [e for e in self._putters
                            if e._value is PENDING]
        self._getters[:] = [e for e in self._getters
                            if e._value is PENDING]
        self._cancelled = 0

    def _dispatch(self) -> None:
        items = self.items
        capacity = self.capacity
        progress = True
        while progress:
            progress = False
            # Admit pending puts while there is room.
            putters = self._putters
            while putters and len(items) < capacity:
                put = putters.pop(0)
                if put._value is not PENDING:
                    self._cancelled -= 1
                    continue  # cancelled/withdrawn while waiting
                items.append(put.item)
                put.succeed()
                progress = True
            # Serve pending gets, oldest item first.  An empty store
            # cannot serve any getter, so skip the scan — and its list
            # churn — outright in that case.
            if not items:
                break
            getters = self._getters
            if getters:
                remaining: list[StoreGet] = []
                for get in getters:
                    if get._value is not PENDING:
                        self._cancelled -= 1
                    elif items:
                        get.succeed(items.pop(0))
                        progress = True
                    else:
                        remaining.append(get)
                self._getters = remaining
