"""Device-level I/O schedulers: the paper's contribution and its baselines.

Five schedulers are provided, matching Section 5.1 of the paper:

* :class:`VirtualAddressScheduler` (``VAS``) - FIFO over I/O requests,
  unaware of the physical layout.
* :class:`PhysicalAddressScheduler` (``PAS``) - coarse-grain out-of-order at
  I/O granularity, aware of physical addresses.
* :class:`Sprinkler` with ``use_rios``/``use_faro`` flags:
  ``SPK1`` (FARO only), ``SPK2`` (RIOS only), ``SPK3`` (RIOS + FARO).

``make_scheduler`` builds any of them by name.
"""

from repro.core.scheduler import SchedulerBase, SchedulerContext
from repro.core.vas import VirtualAddressScheduler
from repro.core.pas import PhysicalAddressScheduler
from repro.core.faro import FaroPolicy
from repro.core.rios import RiosTraversal
from repro.core.sprinkler import Sprinkler
from repro.core.policies import SCHEDULER_NAMES, make_scheduler

__all__ = [
    "SchedulerBase",
    "SchedulerContext",
    "VirtualAddressScheduler",
    "PhysicalAddressScheduler",
    "FaroPolicy",
    "RiosTraversal",
    "Sprinkler",
    "SCHEDULER_NAMES",
    "make_scheduler",
]
