"""NCAPI — the host-side Neural Compute API.

Mirrors the NCSDK v1 Python/C API the paper programs against
(Listing 1): device discovery, ``open_device``, ``allocate_graph``,
the *non-blocking* ``load_tensor`` and the *blocking* ``get_result``
— a decoupled pair that "resembles the MPI non-blocking interface"
(paper §II-B) and enables the computation/communication overlap that
the multi-VPU NCSw scheduler exploits.

Every operation returns a DES event; host code (a process) yields it,
or runs a call's ``*_inline`` generator with ``yield from``.
``load_tensor`` completes as soon as the tensor is transferred and
queued — the inference itself proceeds in the background, exactly like
``mvncLoadTensor`` returning after scheduling.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.errors import DeviceNotFound, DeviceTimeout, NCAPIError
from repro.ncs.device import NCSDevice
from repro.ncs.enumeration import enumerate_devices
from repro.ncs.firmware import DEFAULT_FIRMWARE, FirmwareImage
from repro.ncs.usb import USBTopology
from repro.sim.core import Environment, Event
from repro.sim.monitor import TraceRecorder
from repro.vpu.compiler.compile import CompiledGraph
from repro.vpu.myriad2 import Myriad2Config


class GraphHandle:
    """Handle to a graph allocated on a device (``mvncGraph``)."""

    def __init__(self, device: NCSDevice, graph: CompiledGraph) -> None:
        self._device = device
        self._graph = graph

    @property
    def name(self) -> str:
        """Name of the allocated graph."""
        return self._graph.name

    @property
    def device(self) -> NCSDevice:
        """The underlying stick (health checks, fault injection)."""
        return self._device

    @property
    def device_id(self) -> str:
        """Bus identifier of the stick this graph lives on."""
        return self._device.device_id

    @property
    def device_alive(self) -> bool:
        """False once the stick has died (unplug, hang-kill, thermal)."""
        return not self._device.dead

    def fail_device(self, kind: str, detail: str = "") -> None:
        """Declare the stick dead from the host side.

        A fault-tolerant scheduler calls this when a per-call timeout
        fires: the firmware is presumed hung and the device is written
        off exactly as if it had been unplugged."""
        self._device.mark_dead(kind, detail)

    def load_tensor(self, tensor: Optional[np.ndarray],
                    user: Any = None,
                    timeout: Optional[float] = None) -> Event:
        """Non-blocking input submission (``mvncLoadTensor``).

        The returned event completes once the tensor is on the device
        and queued for execution — *not* when inference finishes.
        With *timeout* (seconds) the call fails with
        :class:`DeviceTimeout` if it has not completed by then; note
        FIFO back-pressure on a healthy device also counts against
        the deadline, so pick timeouts well above one inference.
        """
        return self._device.env.process(
            self.load_tensor_inline(tensor, user, timeout))

    def get_result(self, timeout: Optional[float] = None) -> Event:
        """Blocking result retrieval (``mvncGetResult``).

        Event value is ``(result_fp16_array, user_object)`` for the
        oldest completed inference.  With *timeout* the wait fails
        with :class:`DeviceTimeout` instead of blocking forever — the
        only way to detect a hung firmware.
        """
        return self._device.env.process(self.get_result_inline(timeout))

    def load_tensor_inline(self, tensor: Optional[np.ndarray],
                           user: Any = None,
                           timeout: Optional[float] = None
                           ) -> Generator[Event, None, int]:
        """:meth:`load_tensor` for a host process that waits on the
        call at once: a generator it runs with ``yield from``, so the
        device transfer runs in the caller instead of in a process of
        its own (a *timeout* still races one)."""
        return (yield from self._call(
            "load_tensor", self._device.submit(tensor, user), timeout))

    def get_result_inline(self, timeout: Optional[float] = None
                          ) -> Generator[Event, None, tuple]:
        """:meth:`get_result` run inline in the waiting host process
        (see :meth:`load_tensor_inline`)."""
        return (yield from self._call(
            "get_result", self._device.collect(), timeout))

    def _call(self, name: str, body: Generator[Event, None, Any],
              timeout: Optional[float]) -> Generator[Event, None, Any]:
        """Run a device call *body* under a host-side tracer span.

        The span opens at call time and closes when the call returns
        or fails, so FIFO back-pressure and result waits are visible
        on the ``<device>/host`` track of the timeline.
        """
        obs = self._device.env.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                name, track=f"{self._device.device_id}/host")
        try:
            if timeout is None:
                value = yield from body
            else:
                value = yield self._deadline(
                    name, self._device.env.process(body), timeout)
        except Exception:
            if obs is not None:
                obs.tracer.end(span)
            raise
        if obs is not None:
            obs.tracer.end(span)
        return value

    def _deadline(self, name: str, event: Event,
                  timeout: float) -> Event:
        """Race *event* against a timeout (process event)."""
        if timeout <= 0:
            raise NCAPIError(
                f"timeout must be positive, got {timeout}")
        env = self._device.env

        def _race():
            clock = env.timeout(timeout)
            result = yield env.any_of([event, clock])
            if event.triggered:
                return result[event]
            # Deadline expired: the call is abandoned.  If the pending
            # device-side process later fails (e.g. the stick is then
            # written off and every in-flight call aborts), nobody is
            # listening any more — defuse it so the kernel does not
            # surface an unhandled error.
            if not event.processed:
                def _defuse(ev: Event) -> None:
                    ev._defused = True
                event.add_callback(_defuse)
            raise DeviceTimeout(
                f"{self._device.device_id}: {name} exceeded "
                f"{timeout}s deadline")

        return env.process(_race())

    def time_taken(self) -> list[float]:
        """Per-inference device execution times so far, in seconds."""
        return list(self._device.inference_times)


class DeviceHandle:
    """Handle to an opened NCS device (``mvncDevice``)."""

    def __init__(self, device: NCSDevice) -> None:
        self._device = device

    @property
    def device_id(self) -> str:
        """Bus identifier of the underlying stick."""
        return self._device.device_id

    @property
    def chip(self):
        """The stick's Myriad 2 chip model (for instrumentation)."""
        return self._device.chip

    def allocate_graph(self, blob: bytes) -> Event:
        """Validate + transfer a compiled graph blob (process event).

        Event value is a :class:`GraphHandle`.
        """
        return self.allocate_compiled(CompiledGraph.from_bytes(blob))

    def allocate_compiled(self, graph: CompiledGraph) -> Event:
        """Allocate a :class:`CompiledGraph` directly (skips the blob
        round-trip; used by benchmarks at paper scale where 14 MB of
        weights would be pickled per run for no benefit)."""
        def _alloc():
            yield from self._device.allocate_graph(graph)
            return GraphHandle(self._device, graph)

        return self._device.env.process(_alloc())

    def close(self) -> None:
        """Close the device (``mvncCloseDevice``)."""
        self._device.close()


class NCAPI:
    """Top-level API object: enumeration and device opening."""

    def __init__(self, env: Environment, topology: USBTopology,
                 firmware: FirmwareImage = DEFAULT_FIRMWARE,
                 chip_config: Optional[Myriad2Config] = None,
                 functional: bool = True,
                 trace: Optional[TraceRecorder] = None) -> None:
        self.env = env
        self.topology = topology
        self._devices = enumerate_devices(
            env, topology, firmware=firmware, chip_config=chip_config,
            functional=functional, trace=trace)

    def open_device(self, index: int) -> Event:
        """Boot device *index*; event value is a :class:`DeviceHandle`."""
        if not 0 <= index < len(self._devices):
            raise DeviceNotFound(
                f"device index {index} out of range "
                f"[0, {len(self._devices)})")
        device = self._devices[index]

        def _open():
            yield from device.boot()
            return DeviceHandle(device)

        return self.env.process(_open())

    @property
    def devices(self) -> list[NCSDevice]:
        """Raw device objects (for tests and instrumentation)."""
        return list(self._devices)
