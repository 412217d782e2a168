"""Linear-scan reference implementations of PAS and SPK1.

Production PAS keeps a wait index (arrival-ordered heap plus I/Os parked on
busy chips) and SPK1 ranks FARO chips in one pass over its lookahead window.
The classes here are the straightforward versions they replaced: PAS rescans
the whole queue on every composition, SPK1 regroups its window per chip and
ranks each chip with a ``Counter``.  ``tests/test_scheduler_oracles.py`` runs
both against production and requires identical results and composition
order.  The FARO metrics ``overlap_depth`` and ``connectivity`` live here as
plain functions over request lists.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, List, Optional, Sequence

from repro.core.scheduler import SchedulerBase
from repro.core.sprinkler import Sprinkler
from repro.flash.request import MemoryRequest
from repro.nvmhc.tag import Tag


def overlap_depth(requests: Sequence[MemoryRequest]) -> int:
    """Number of distinct (die, plane) targets among ``requests``."""
    targets = {
        (req.address.die, req.address.plane)
        for req in requests
        if req.address is not None
    }
    return len(targets)


def connectivity(requests: Sequence[MemoryRequest]) -> int:
    """Largest number of requests that belong to one I/O request."""
    if not requests:
        return 0
    counts = Counter(req.io_id for req in requests)
    return max(counts.values())


def _linear_pending(tags: List[Tag]) -> List[Tag]:
    return [tag for tag in tags if not tag.fully_composed]


class LinearScanPAS(SchedulerBase):
    """PAS that rescans every queued I/O's chips on every composition."""

    name = "PAS"
    uses_physical_layout = True

    def __init__(self, context) -> None:
        super().__init__(context)
        self._current: Optional[Tag] = None

    def next_composition(self, now_ns: int) -> Optional[MemoryRequest]:
        current = self._current
        if current is not None:
            request = current.next_uncomposed()
            if request is not None:
                return request
            self._current = None
        pending = _linear_pending(self.tags)
        controllers = self.context.controllers
        for tag in pending:
            if self._has_fua_barrier(pending, tag):
                break
            for chip_key in tag.by_chip:
                if chip_key in controllers[chip_key[0]].busy:
                    break  # collision: try the next queued I/O
            else:
                request = tag.next_uncomposed()
                if request is not None:
                    self._current = tag
                    return request
            if tag.io.force_unit_access:
                break  # a force-unit-access request must not be bypassed
        return None

    def _has_fua_barrier(self, tags: List[Tag], tag: Tag) -> bool:
        for earlier in tags:
            if earlier.io_id == tag.io_id:
                return False
            if earlier.io.force_unit_access and not earlier.fully_composed:
                self._fua_barriers += 1
                return True
        return False

    def on_tag_retired(self, tag: Tag) -> None:
        super().on_tag_retired(tag)
        if self._current is not None and self._current.io_id == tag.io_id:
            self._current = None


class LinearScanSPK1(Sprinkler):
    """SPK1 that regroups its window per chip and ranks chips one by one."""

    def __init__(self, context, **options) -> None:
        super().__init__(context, use_rios=False, use_faro=True, **options)

    def next_composition(self, now_ns: int) -> Optional[MemoryRequest]:
        while self._burst:
            head = self._burst.popleft()
            if head.composed_at_ns is None:
                return head
        pending = _linear_pending(self.tags)
        if not pending:
            return None
        if any(tag.io.force_unit_access for tag in pending):
            self._fua_barriers += 1
            return self._next_fifo(pending)
        candidates = self._candidates_by_chip(pending[: self.faro_lookahead_tags])
        chip_key = self._best_chip(candidates)
        if chip_key is None:
            return None
        ordered = self.faro.order_requests(candidates[chip_key])
        burst = ordered[: self.overcommit_limit]
        self._burst = deque(burst[1:])
        self._bursts += 1
        self._burst_requests += len(burst)
        return burst[0]

    @staticmethod
    def _candidates_by_chip(tags: List[Tag]) -> Dict[tuple, List[MemoryRequest]]:
        by_chip: Dict[tuple, List[MemoryRequest]] = {}
        for tag in tags:
            for chip_key, requests in tag.by_chip.items():
                for req in requests:
                    if req.composed_at_ns is None:
                        by_chip.setdefault(chip_key, []).append(req)
        return by_chip

    @staticmethod
    def _best_chip(candidates: Dict[tuple, List[MemoryRequest]]) -> Optional[tuple]:
        best_key = best_rank = None
        for chip_key, requests in candidates.items():
            if not requests:
                continue
            rank = (overlap_depth(requests), connectivity(requests))
            if (
                best_key is None
                or rank > best_rank
                or (rank == best_rank and chip_key < best_key)
            ):
                best_key, best_rank = chip_key, rank
        return best_key
