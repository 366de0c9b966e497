"""USB 3.0 bus topology with shared-link contention.

The paper's testbed (Fig. 5) attaches 8 NCS devices: 2 directly to the
motherboard's USB 3.0 root ports, 6 through two external hubs.  A hub
multiplexes its downstream devices over one upstream link, so
concurrent transfers to devices on the same hub contend — this model
serialises them on the hub's upstream link resource, which is exactly
the "small penalty ... due to the data transfers" the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from repro.errors import USBError
from repro.sim.core import Environment, Event
from repro.sim.resources import Resource
from repro.units import MB

#: Effective bulk-transfer bandwidth of a USB 3.0 SuperSpeed link.
#: Protocol overhead keeps sustained rates well under the 5 Gb/s line
#: rate; 400 MB/s matches measured xHCI bulk throughput.
USB3_BANDWIDTH_BYTES_S = 400 * MB
#: Per-transfer latency (submission, scheduling, completion IRQ).
USB3_LATENCY_S = 150e-6


#: A failed bulk transfer retries after this backoff (protocol
#: re-arm + host stack resubmission).
USB_RETRY_BACKOFF_S = 1e-3
#: Attempts before the host gives up on a transfer.
USB_MAX_ATTEMPTS = 4


@dataclass
class USBLink:
    """One physical link (root port or hub upstream).

    ``error_rate`` injects transfer failures (per attempt) from a
    deterministic per-link RNG — the failure-injection hook the
    robustness tests and the flaky-link ablation use.  Failed
    attempts are retried by :meth:`USBTopology.transfer` with a fixed
    backoff, like the xHCI stack resubmitting a babbled bulk URB.
    """

    name: str
    bandwidth: float = USB3_BANDWIDTH_BYTES_S
    latency: float = USB3_LATENCY_S
    error_rate: float = 0.0
    bytes_moved: int = 0
    errors_injected: int = 0
    _lock: Optional[Resource] = field(default=None, repr=False)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate < 1.0:
            raise USBError(
                f"error_rate must be in [0, 1), got {self.error_rate}")

    def bind(self, env: Environment) -> None:
        """Attach the link to a simulation environment."""
        self._lock = Resource(env, capacity=1)
        # Stable per-link seed (not Python's salted hash()) so failure
        # injection is reproducible run to run.
        import hashlib
        digest = hashlib.sha256(f"usb-link:{self.name}".encode()).digest()
        self._rng = np.random.default_rng(
            int.from_bytes(digest[:8], "little"))

    def attempt_fails(self) -> bool:
        """Draw one failure decision for a transfer attempt."""
        if self.error_rate <= 0.0 or self._rng is None:
            return False
        failed = bool(self._rng.random() < self.error_rate)
        if failed:
            self.errors_injected += 1
        return failed

    def transfer_seconds(self, nbytes: int) -> float:
        """Uncontended cost of moving *nbytes* over this link."""
        if nbytes < 0:
            raise USBError("negative transfer size")
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class _Attachment:
    device_id: str
    links: tuple[str, ...]  #: path of link names from host to device


class USBTopology:
    """Host controller, root ports, hubs and attached devices."""

    def __init__(self, env: Environment, root_ports: int = 4) -> None:
        if root_ports < 1:
            raise USBError("need at least one root port")
        self.env = env
        self.links: dict[str, USBLink] = {}
        self._attachments: dict[str, _Attachment] = {}
        self._hub_ports: dict[str, int] = {}
        #: hub name -> (root port it occupies, its upstream link)
        self._hub_chains: dict[str, tuple[str, str]] = {}
        self._root_free = [f"root{i}" for i in range(root_ports)]
        for name in self._root_free:
            self._add_link(USBLink(name))

    # -- construction ---------------------------------------------------
    def _add_link(self, link: USBLink) -> None:
        if link.name in self.links:
            raise USBError(f"duplicate link {link.name!r}")
        link.bind(self.env)
        self.links[link.name] = link

    def add_hub(self, name: str, ports: int = 4,
                bandwidth: float = USB3_BANDWIDTH_BYTES_S) -> str:
        """Attach a hub to the next free root port; returns hub name."""
        if ports < 1:
            raise USBError("hub needs at least one port")
        if not self._root_free:
            raise USBError("no free root ports for hub")
        # Validate before taking the port: a rejected hub leaks none.
        self._add_link(USBLink(f"{name}-up", bandwidth=bandwidth))
        self._hub_ports[name] = ports
        # Devices behind the hub share its root port and upstream link.
        self._hub_chains[name] = (self._root_free.pop(0), f"{name}-up")
        return name

    def attach_device(self, device_id: str,
                      hub: str | None = None) -> None:
        """Attach *device_id* to a root port or to *hub*."""
        if device_id in self._attachments:
            raise USBError(f"device {device_id!r} already attached")
        if hub is None:
            if not self._root_free:
                raise USBError("no free root ports")
            port = self._root_free.pop(0)
            self._attachments[device_id] = _Attachment(
                device_id, (port,))
            return
        if hub not in self._hub_ports:
            raise USBError(f"unknown hub {hub!r}")
        if self._hub_ports[hub] == 0:
            raise USBError(f"hub {hub!r} has no free ports")
        self._hub_ports[hub] -= 1
        chain = self._hub_chains[hub]
        self._attachments[device_id] = _Attachment(device_id, chain)

    def detach_device(self, device_id: str) -> None:
        """Hot-unplug *device_id*: drop its attachment.

        Subsequent transfers to the device raise :class:`USBError`
        (the xHCI stack's cable-pulled behaviour).  The port is not
        reclaimed — a yanked stick leaves its slot physically
        occupied for the rest of the run.
        """
        if device_id not in self._attachments:
            raise USBError(f"device {device_id!r} not attached")
        del self._attachments[device_id]

    @property
    def devices(self) -> list[str]:
        """Attached device ids, in attachment order."""
        return list(self._attachments)

    def path(self, device_id: str) -> tuple[str, ...]:
        """Link names from host to *device_id*."""
        try:
            return self._attachments[device_id].links
        except KeyError:
            raise USBError(f"device {device_id!r} not attached") from None

    # -- transfers ------------------------------------------------------------
    def transfer(self, device_id: str, nbytes: int
                 ) -> Generator[Event, None, float]:
        """Move *nbytes* to/from a device (a generator body: run it
        inline with ``yield from``); returns the seconds taken.

        The transfer holds every shared link on the device's path for
        its duration; devices on different root ports proceed in
        parallel, devices behind the same hub serialise.
        """
        path = self.path(device_id)
        links = [self.links[name] for name in path]
        # The path's cost is bounded by its slowest link; latency adds
        # per hop.
        duration = (sum(l.latency for l in links)
                    + nbytes / min(l.bandwidth for l in links))
        started = self.env.now
        for attempt in range(1, USB_MAX_ATTEMPTS + 1):
            requests = []
            try:
                for link in links:
                    assert link._lock is not None
                    req = link._lock.request()
                    requests.append((link, req))
                    yield req
                # Link occupancy span covers exactly the locked window
                # (the deepest shared link on the path — the hub
                # upstream for hub devices — is where contention shows).
                obs = self.env.obs
                span = None
                if obs is not None:
                    span = obs.tracer.begin(
                        "usb_transfer", track=f"usb:{path[-1]}",
                        device=device_id, nbytes=nbytes,
                        attempt=attempt)
                yield self.env.timeout(duration)
                if obs is not None:
                    obs.tracer.end(span)
                failed = any(link.attempt_fails() for link in links)
                if not failed:
                    for link in links:
                        link.bytes_moved += nbytes
                    return self.env.now - started
            finally:
                for link, req in requests:
                    link._lock.release(req)
            if attempt == USB_MAX_ATTEMPTS:
                raise USBError(
                    f"transfer over {path} failed after "
                    f"{USB_MAX_ATTEMPTS} attempts")
            yield self.env.timeout(USB_RETRY_BACKOFF_S)
        raise AssertionError("unreachable")

    def transfer_seconds(self, device_id: str, nbytes: int) -> float:
        """Uncontended transfer cost along the device's path."""
        links = [self.links[name] for name in self.path(device_id)]
        return (sum(l.latency for l in links)
                + nbytes / min(l.bandwidth for l in links))


def paper_testbed_topology(env: Environment,
                           num_devices: int = 8) -> USBTopology:
    """The paper's Fig. 5 testbed: 2 root-port sticks + 6 over 2 hubs.

    For ``num_devices`` < 8 the root ports fill first, then hub A,
    then hub B, mirroring how the authors scaled 1-8 sticks.
    """
    if not 1 <= num_devices <= 8:
        raise USBError(
            f"the paper's testbed holds 1-8 devices, got {num_devices}")
    topo = USBTopology(env, root_ports=4)
    hubs: list[str] = []
    if num_devices > 2:
        hubs.append(topo.add_hub("hubA", ports=3))
    if num_devices > 5:
        hubs.append(topo.add_hub("hubB", ports=3))
    for i in range(num_devices):
        if i < 2:
            topo.attach_device(f"ncs{i}")
        elif i < 5:
            topo.attach_device(f"ncs{i}", hub="hubA")
        else:
            topo.attach_device(f"ncs{i}", hub="hubB")
    return topo
