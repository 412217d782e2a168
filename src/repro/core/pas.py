"""Physical Address Scheduler (PAS).

PAS (paper Section 3, Figure 5) schedules I/O requests with knowledge of the
physical addresses exposed by a hardware-assisted preprocessor (Ozone) or a
software translation unit (PAQ).  It can therefore *reorder* I/O requests to
avoid request collisions and execute them in a coarse-grain out-of-order
fashion: an I/O is committed only when none of its target chips holds
outstanding work, and I/Os that would collide are skipped until the conflict
clears.

Its two remaining weaknesses (which Sprinkler removes) are preserved here:

* composition and commitment happen at *I/O request* granularity and in
  arrival order among the eligible requests, so the achievable parallelism
  still depends on the incoming access pattern (parallelism dependency);
* it never over-commits - a chip holds the requests of at most one I/O at a
  time - so the flash controller rarely sees enough requests to build a
  high-FLP transaction across I/O boundaries.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.scheduler import SchedulerBase
from repro.flash.request import MemoryRequest
from repro.flash.transaction import FlashTransaction
from repro.nvmhc.tag import Tag

#: A queued I/O: its registration sequence (arrival order), the tag, and its
#: target chips grouped per channel, each group beside that channel
#: controller's ``busy`` set.
Entry = Tuple[int, Tag, Tuple[Tuple[set, Tuple[tuple, ...]], ...]]


class PhysicalAddressScheduler(SchedulerBase):
    """Coarse-grain out-of-order scheduler at I/O granularity.

    Instead of rescanning the whole queue per composition, PAS keeps a wait
    index: queued I/Os wait in a min-heap keyed by arrival sequence, and an
    I/O found blocked is parked on one of its busy chips until that chip
    goes idle (:meth:`on_transaction_complete`).  A parked I/O cannot start
    while its chip is busy, so the first free I/O popped from the heap is
    exactly the first conflict-free I/O of the queue in arrival order.
    """

    name = "PAS"
    uses_physical_layout = True
    allows_overcommit = False
    uses_readdressing_callback = False

    def __init__(self, context) -> None:
        super().__init__(context)
        #: The I/O currently being composed.  PAS commits one I/O atomically
        #: before considering the next, so at most one tag is partially
        #: composed at any instant.
        self._current: Optional[Tag] = None
        self._sequence = 0
        #: Queued I/Os that are neither started nor parked.
        self._candidates: List[Entry] = []
        #: Blocked I/Os per busy chip they were parked on.
        self._parked: Dict[tuple, List[Entry]] = {}
        #: Force-unit-access I/Os in arrival order; fully composed ones are
        #: dropped lazily by :meth:`_fua_barrier`.
        self._fua_waiting: Deque[Entry] = deque()
        #: Queued I/Os found blocked and parked on a busy chip (each parking
        #: is one out-of-order reordering decision).
        self._conflict_skips = 0

    def observability_counters(self) -> Dict[str, int]:
        counters = super().observability_counters()
        counters["scheduler.conflict_skips"] = self._conflict_skips
        return counters

    def register_tag(self, tag: Tag, now_ns: int) -> None:
        super().register_tag(tag, now_ns)
        # Newest page first: PAS commits an I/O's pages in order, so the chips
        # of a blocking I/O's later pages tend to stay busy longest, and an
        # I/O parked there is woken (and re-parked) fewer times.
        by_channel: Dict[int, List[tuple]] = {}
        for chip_key in reversed(tag.by_chip):
            by_channel.setdefault(chip_key[0], []).append(chip_key)
        controllers = self.context.controllers
        groups = tuple(
            (controllers[channel].busy, tuple(chips))
            for channel, chips in by_channel.items()
        )
        entry = (self._sequence, tag, groups)
        self._sequence += 1
        heappush(self._candidates, entry)
        if tag.io.force_unit_access:
            self._fua_waiting.append(entry)

    def next_composition(self, now_ns: int) -> Optional[MemoryRequest]:
        """Continue a partially-composed I/O, else start a conflict-free one."""
        current = self._current
        if current is not None:
            request = current.next_uncomposed()
            if request is not None:
                return request
            self._current = None
        # A force-unit-access I/O must not be bypassed: nothing that arrived
        # after the first unfinished one may start.
        barrier = self._fua_barrier()
        candidates = self._candidates
        while candidates:
            entry = candidates[0]
            if barrier is not None and entry[0] > barrier:
                return None
            heappop(candidates)
            if not self._park(entry):
                request = entry[1].next_uncomposed()
                if request is not None:
                    self._current = entry[1]
                    return request
        return None

    def _park(self, entry: Entry) -> bool:
        """Park a queued I/O on a busy chip, trying its later pages' chips first.

        Returns False, parking nothing, when every target chip is free.
        """
        # One C-level disjointness test per channel the I/O touches, against
        # the controller's busy set, instead of a Python probe per chip.
        for busy, chips in entry[2]:
            if busy.isdisjoint(chips):
                continue
            for chip_key in chips:
                if chip_key in busy:
                    self._parked.setdefault(chip_key, []).append(entry)
                    self._conflict_skips += 1
                    return True
        return False

    def _fua_barrier(self) -> Optional[int]:
        """Sequence of the first force-unit-access I/O not yet fully composed."""
        waiting = self._fua_waiting
        while waiting:
            sequence, tag, _ = waiting[0]
            if tag.composed_count < len(tag.memory_requests):
                return sequence
            waiting.popleft()
        return None

    def on_transaction_complete(
        self, chip_key: tuple, transaction: FlashTransaction, now_ns: int
    ) -> None:
        """Wake the I/Os parked on a chip once it is idle.

        A woken I/O still blocked by another busy chip is parked there at
        once; only I/Os whose chips are all free return to the heap.
        """
        if chip_key in self.context.controllers[chip_key[0]].busy:
            return
        parked = self._parked.pop(chip_key, None)
        if parked:
            for entry in parked:
                if not self._park(entry):
                    heappush(self._candidates, entry)

    def on_tag_retired(self, tag: Tag) -> None:
        super().on_tag_retired(tag)
        if self._current is not None and self._current.io_id == tag.io_id:
            self._current = None
