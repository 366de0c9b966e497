"""MPI data streaming (the ExaMPI'15 model the paper cites).

Peng et al.'s streaming extension gives MPI a unidirectional,
bounded *stream window* between a producer and a consumer rank: the
producer pushes items without per-message rendezvous, the consumer
drains in order, and backpressure kicks in when the window fills.
:class:`StreamWindow` provides exactly that over a
:class:`~repro.mpi.comm.Communicator`, and is what the NCSw
``MPIStream`` source would attach to on a real cluster.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import SimulationError
from repro.mpi.comm import Communicator, _payload_bytes
from repro.sim.core import PENDING, Event
from repro.sim.resources import Store


class StreamWindow:
    """Bounded in-order stream from one rank to another."""

    _EOS = object()

    def __init__(self, comm: Communicator, source: int, dest: int,
                 window: int = 8) -> None:
        comm._check_rank(source, "source")
        comm._check_rank(dest, "dest")
        if source == dest:
            raise SimulationError("stream endpoints must differ")
        if window < 1:
            raise SimulationError(f"window must be >= 1, got {window}")
        self.comm = comm
        self.source = source
        self.dest = dest
        self.window = window
        self._buffer = Store(comm.env, capacity=window)
        self.pushed = 0
        self.popped = 0
        self._closed = False

    def push(self, item: Any) -> Event:
        """Producer side: append an item (the event pends while the
        window is full — the stream's backpressure)."""
        if self._closed:
            raise SimulationError("stream already closed")
        env = self.comm.env
        pushed = env.event()

        def delivered(_: Event) -> None:
            self.pushed += 1
            obs = env.obs
            if obs is not None:
                obs.reqtrace.hop(getattr(item, "trace", None),
                                 "delivered",
                                 track=f"rank{self.dest}/stream")
            pushed.succeed()

        # Wire cost of moving the item to the consumer's window, then
        # the hand-off into it.
        wire = self.comm.transfer_seconds(_payload_bytes(item))
        env.timeout(wire).add_callback(
            lambda _: self._buffer.put(item).add_callback(delivered))
        return pushed

    def close(self) -> Event:
        """Producer side: queue the end-of-stream mark."""
        self._closed = True
        return self._buffer.put(self._EOS)

    @property
    def closed(self) -> bool:
        """True once the stream was closed or aborted."""
        return self._closed

    def abort(self) -> list[Any]:
        """Tear the stream down mid-flight (consumer rank died).

        Unlike :meth:`close`, which lets buffered items drain, abort
        cuts the channel *now*: every undelivered item — the window's
        buffered backlog plus the payloads of pushes still blocked on
        a full window — is pulled out and returned to the caller, and
        an EOS lands in the emptied window so pending and future pops
        resolve to ``None``.  Blocked producers are released (their
        put events succeed) so push processes terminate instead of
        waiting on a rank that will never drain them.

        Pushes whose simulated wire transfer is still in flight at
        abort time are *not* in the returned list — their items land
        in the dead window behind the EOS, where no consumer pop can
        reach them.  Callers needing exactly-once delivery must track
        ownership of in-flight items themselves (the cluster frontend
        does), not rely on the stream's backlog alone.
        """
        self._closed = True
        buffer = self._buffer
        stranded = [item for item in buffer.items
                    if item is not self._EOS]
        buffer.items.clear()
        for put in list(buffer._putters):
            if put._value is PENDING:
                stranded.append(put.item)
                put.succeed()
        buffer._putters.clear()
        buffer.put(self._EOS)  # wakes pending pops with EOS -> None
        return stranded

    def pop(self) -> Event:
        """Consumer side: event -> next item, or ``None`` at EOS."""
        return self.comm.env.process(self.receive())

    def receive(self) -> Generator[Event, None, Any]:
        """Consumer side, inline: ``item = yield from stream.receive()``
        waits for the next item, or returns ``None`` at EOS."""
        item = yield self._buffer.get()
        if item is self._EOS:
            # Leave the sentinel visible to further pops.
            yield self._buffer.put(self._EOS)
            return None
        self.popped += 1
        return item

    @property
    def depth(self) -> int:
        """Items currently buffered in the window."""
        return sum(1 for i in self._buffer.items if i is not self._EOS)
