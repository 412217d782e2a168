"""Readdressing callback (paper Section 4.3).

Live data migration (garbage collection, wear levelling, bad-block
replacement) changes physical addresses *while I/O requests are in flight*.
A physical-address-aware scheduler whose committed memory requests point at
the old locations would execute stale accesses.

Sprinkler solves this with a *readdressing callback*: whenever the FTL moves
live pages it hands the callback the ``(old, new)`` move list, and the
callback re-aims every committed, not-yet-executing memory request that
pointed at a moved page.  Schedulers without the callback (VAS and PAS in
the paper's Section 5.9 experiment) pay a penalty instead: their stale
requests must be re-translated and re-issued when they reach the chip.

There is one route: :class:`~repro.ftl.mapping.PageMapFTL` calls
:meth:`ReaddressingCallback.on_migrations` from both its bulk (garbage
collection) and per-page (wear levelling, bad-block replacement) migration
paths, and the callback counts how many tracked requests it retargeted or
penalised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest


@dataclass
class CallbackStats:
    """Counters describing readdressing-callback activity."""

    requests_retargeted: int = 0
    requests_penalized: int = 0


class ReaddressingCallback:
    """Keeps committed memory requests aimed at pages that migration moved.

    When ``enabled`` is False (VAS and PAS in the paper's GC experiment) the
    object still tracks committed requests, but a migration that hits one of
    them charges ``stale_penalty_ns`` of extra service time instead of a
    clean retarget - the request has to be re-translated and re-issued when
    the controller discovers the stale address.
    """

    def __init__(self, *, enabled: bool = True, stale_penalty_ns: int = 0) -> None:
        self.enabled = enabled
        self.stale_penalty_ns = stale_penalty_ns
        self.stats = CallbackStats()
        self._pending_index: Dict[PhysicalPageAddress, List[MemoryRequest]] = {}

    def track_request(self, request: MemoryRequest) -> None:
        """Start tracking a committed memory request for possible retargeting."""
        if request.address is None:
            return
        self._pending_index.setdefault(request.address, []).append(request)

    def untrack_request(self, request: MemoryRequest) -> None:
        """Stop tracking a request (it started executing or completed)."""
        if request.address is None:
            return
        bucket = self._pending_index.get(request.address)
        if not bucket:
            return
        # Delete in place instead of rebuilding the bucket: untrack runs once
        # per retired memory request, and the rebuild churned a fresh list
        # (plus a second dict lookup) every time.
        request_id = request.request_id
        for index, req in enumerate(bucket):
            if req.request_id == request_id:
                del bucket[index]
                break
        if not bucket:
            del self._pending_index[request.address]

    def on_migrations(
        self, moves: List[Tuple[PhysicalPageAddress, PhysicalPageAddress]]
    ) -> None:
        """Live pages moved from ``old`` to ``new`` for each ``(old, new)``.

        Every tracked request aimed at an ``old`` address is re-aimed at its
        ``new`` one (and keeps being tracked there); with the callback
        disabled it is also charged the stale penalty.  Moves are
        independent - within one list no destination is also a source - so
        the order in which they are applied does not matter.
        """
        pending = self._pending_index
        if not pending:
            return
        if len(pending) * 4 <= len(moves):
            # Far fewer tracked addresses than moves: probe the move table
            # from the pending side instead of walking every move.  dict()
            # builds at C speed.
            move_get = dict(moves).get
            moves = [(old, new) for old in pending if (new := move_get(old)) is not None]
        stats = self.stats
        enabled = self.enabled
        penalty_ns = self.stale_penalty_ns
        pending_pop = pending.pop
        pending_setdefault = pending.setdefault
        for old, new in moves:
            stale = pending_pop(old, None)
            if stale is None:
                continue
            for request in stale:
                request.retarget(new)
            if enabled:
                stats.requests_retargeted += len(stale)
            else:
                # Without the callback the scheduler keeps scheduling against
                # stale layout information; the request pays a re-translation
                # and re-issue penalty when it finally executes.
                for request in stale:
                    request.penalty_ns += penalty_ns
                stats.requests_penalized += len(stale)
            pending_setdefault(new, []).extend(stale)
