"""Intel Neural Compute Stick (NCS) platform model.

The NCS packages a Myriad 2 (MA2450) behind a USB 3.0 interface with
two RISC management processors running an RTOS (paper §II-B, Fig. 2).
This package models:

* the USB bus topology — host controller, root ports and hubs with
  shared upstream bandwidth (the paper's testbed hangs 6 of its 8
  sticks off two hubs, Fig. 5) (:mod:`repro.ncs.usb`);
* the stick itself: firmware boot, graph allocation, the input/output
  inference FIFOs and the RISC runtime scheduler that feeds the SHAVE
  array (:mod:`repro.ncs.device`);
* the NCAPI: ``open_device`` / ``allocate_graph`` / ``load_tensor``
  (non-blocking) / ``get_result`` (blocking), mirroring the NCSDK v1
  semantics the paper's Listing 1 shows (:mod:`repro.ncs.ncapi`);
* device enumeration over the topology (:mod:`repro.ncs.enumeration`).
"""

from repro.ncs.usb import USBLink, USBTopology, paper_testbed_topology
from repro.ncs.firmware import FirmwareImage, DEFAULT_FIRMWARE
from repro.ncs.device import NCSDevice
from repro.ncs.ncapi import NCAPI, DeviceHandle, GraphHandle
from repro.ncs.enumeration import enumerate_devices
from repro.ncs.health import HealthMonitor, HealthTransition
from repro.ncs.thermal import ThermalConfig, ThermalModel
from repro.ncs.session import SyncSession

__all__ = [
    "USBLink",
    "USBTopology",
    "paper_testbed_topology",
    "FirmwareImage",
    "DEFAULT_FIRMWARE",
    "NCSDevice",
    "NCAPI",
    "DeviceHandle",
    "GraphHandle",
    "enumerate_devices",
    "HealthMonitor",
    "HealthTransition",
    "ThermalConfig",
    "ThermalModel",
    "SyncSession",
]
