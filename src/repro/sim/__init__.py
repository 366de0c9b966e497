"""Discrete-event simulation (DES) kernel.

A compact, from-scratch process-based DES in the style of SimPy:
generator functions model concurrent activities (SHAVE processors, USB
transfers, host threads); yielding an :class:`~repro.sim.core.Event`
suspends the process until the event fires on the simulated clock.

The kernel is deterministic: events scheduled for the same timestamp are
processed in FIFO order of scheduling, so repeated runs of the same model
produce identical traces.
"""

from repro.sim.core import (Environment, Event, Process, Timeout,
                            Interrupt, CANCELLED)
from repro.sim.resources import Resource, Store
from repro.sim.monitor import Monitor, TraceRecorder

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Interrupt",
    "CANCELLED",
    "Resource",
    "Store",
    "Monitor",
    "TraceRecorder",
]
