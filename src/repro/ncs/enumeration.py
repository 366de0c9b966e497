"""Device enumeration over the USB topology.

``mvncGetDeviceName(index)`` in the NCSDK walks the USB bus; this is
its analogue: build the stick objects for every NCS attached to a
topology.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DeviceNotFound
from repro.ncs.device import NCSDevice
from repro.ncs.firmware import DEFAULT_FIRMWARE, FirmwareImage
from repro.ncs.usb import USBTopology
from repro.sim.core import Environment
from repro.sim.monitor import TraceRecorder
from repro.vpu.myriad2 import Myriad2Config


def enumerate_devices(env: Environment, topology: USBTopology,
                      firmware: FirmwareImage = DEFAULT_FIRMWARE,
                      chip_config: Optional[Myriad2Config] = None,
                      functional: bool = True,
                      trace: Optional[TraceRecorder] = None
                      ) -> list[NCSDevice]:
    """Instantiate an :class:`NCSDevice` for every attached stick.

    The sticks share one mapping of functional waves, so those running
    the same graph batch their FP16 forwards together.
    """
    devices = [NCSDevice(env, device_id, topology, firmware=firmware,
                         chip_config=chip_config, functional=functional,
                         trace=trace)
               for device_id in topology.devices]
    if not devices:
        raise DeviceNotFound("no NCS devices attached to the topology")
    waves = devices[0].waves
    for device in devices:
        device.waves = waves
    return devices
