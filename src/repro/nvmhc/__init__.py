"""Non-Volatile Memory Host Controller (NVMHC) substrate.

The NVMHC is the control logic between the host interface and the SSD's
internals (paper Section 2.1): it owns the device-level queue of host tags,
parses them, composes page-sized memory requests, initiates the associated
host<->SSD data movements (DMA), and completes each I/O once all of its
memory requests have finished.  The device-level I/O schedulers the paper
studies (VAS, PAS and Sprinkler) are implemented inside the NVMHC.
"""

from repro.nvmhc.tag import Tag
from repro.nvmhc.queue import DeviceQueue
from repro.nvmhc.dma import DmaEngine

__all__ = ["Tag", "DeviceQueue", "DmaEngine"]
