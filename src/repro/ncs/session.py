"""Synchronous facade over the NCAPI.

The event-driven NCAPI is faithful to the NCSDK but requires writing
generator processes.  :class:`SyncSession` wraps one simulation
environment and drives it to completion behind every call, so a user
can classify images in four plain statements::

    sess = SyncSession(num_devices=1)
    dev = sess.open_device(0)
    graph = sess.allocate(dev, compiled_graph)
    probs, _ = sess.infer(graph, tensor)

Each call advances the simulated clock (inspectable via
:attr:`SyncSession.now`); the asynchronous overlap patterns of the
paper still require the process API.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.errors import NCAPIError
from repro.ncs.ncapi import NCAPI, DeviceHandle, GraphHandle
from repro.ncs.usb import USBTopology, paper_testbed_topology
from repro.sim.core import Environment
from repro.vpu.compiler.compile import CompiledGraph


class SyncSession:
    """One simulated bus + NCAPI, driven synchronously."""

    def __init__(self, num_devices: int = 1, functional: bool = True,
                 topology: Optional[USBTopology] = None,
                 env: Optional[Environment] = None) -> None:
        self.env = env if env is not None else Environment()
        if topology is not None and topology.env is not self.env:
            raise NCAPIError(
                "a custom topology must share the session's env — "
                "pass both: SyncSession(topology=topo, env=env)")
        topo = topology if topology is not None else \
            paper_testbed_topology(self.env, num_devices=num_devices)
        self.api = NCAPI(self.env, topo, functional=functional)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.env.now

    def open_device(self, index: int) -> DeviceHandle:
        """Boot a stick and return its handle (blocks on the clock)."""
        return self.env.run(until=self.api.open_device(index))

    def allocate(self, device: DeviceHandle,
                 graph: CompiledGraph | bytes) -> GraphHandle:
        """Ship a compiled graph (object or blob) to a device."""
        if isinstance(graph, (bytes, bytearray)):
            event = device.allocate_graph(bytes(graph))
        else:
            event = device.allocate_compiled(graph)
        return self.env.run(until=event)

    def infer(self, graph: GraphHandle,
              tensor: Optional[np.ndarray],
              user: Any = None) -> tuple[np.ndarray, Any]:
        """One blocking inference: load_tensor + get_result."""
        self.env.run(until=graph.load_tensor(tensor, user=user))
        return self.env.run(until=graph.get_result())
