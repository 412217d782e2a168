"""FARO: Flash-level-parallelism Aware Request Over-commitment.

FARO (paper Section 4.2) decides *which* memory requests to over-commit to a
chip, and in what order, so that the flash controller can coalesce them into
a single high-FLP transaction.  Two metrics drive the priority:

* **overlap depth** - the number of memory requests targeting *different
  planes and dies* of the same flash chip.  A chip with a high overlap depth
  can be served by a die-interleaved / multiplane transaction, so its
  requests are committed first.
* **connectivity** - the maximum number of memory requests that belong to
  the same I/O request.  Used as a tie-breaker: committing highly-connected
  requests together shortens that I/O's latency.

Sprinkler's SPK1 path computes both metrics per chip in one pass over its
lookahead window and hands them to :meth:`FaroPolicy.best_chip`; SPK3 uses
only the request ordering, :meth:`FaroPolicy.order_requests`.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from repro.flash.commands import FlashOp
from repro.flash.request import MemoryRequest


class FaroPolicy:
    """Orders chips and requests according to FARO's dynamic priority."""

    def __init__(self, read_before_write: bool = True) -> None:
        #: Hazard control (paper Section 4.4): serve reads before writes when
        #: both target the same plane, so a write-after-read never observes
        #: the new data early.
        self.read_before_write = read_before_write

    # ------------------------------------------------------------------
    # Chip-level priority
    # ------------------------------------------------------------------
    def best_chip(self, ranks: Mapping[tuple, Tuple[int, int]]) -> Optional[tuple]:
        """Chip with the highest FARO priority, or ``None`` when there is none.

        ``ranks`` maps each candidate chip to its ``(overlap_depth,
        connectivity)``: higher overlap depth wins, ties go to higher
        connectivity, then to the lowest chip key.
        """
        best_key: Optional[tuple] = None
        best_rank: Optional[Tuple[int, int]] = None
        for chip_key, rank in ranks.items():
            if (
                best_key is None
                or rank > best_rank
                or (rank == best_rank and chip_key < best_key)
            ):
                best_rank = rank
                best_key = chip_key
        return best_key

    # ------------------------------------------------------------------
    # Request ordering inside one chip
    # ------------------------------------------------------------------
    def order_requests(self, requests: Sequence[MemoryRequest]) -> List[MemoryRequest]:
        """Order a chip's requests for commitment.

        The goal is to place requests that *extend* the die/plane coverage
        first, so that even if the transaction decision window closes early
        the transaction already spans as many dies and planes as possible.
        Within the same coverage step, reads go before writes (hazard
        control) and older I/Os before newer ones (fairness).
        """
        remaining = [req for req in requests if req.address is not None]
        ordered: List[MemoryRequest] = []
        covered: set = set()
        # Stable base order: hazard rule, then I/O id, then request id.
        remaining.sort(key=self._base_key)
        while remaining:
            pick_index = None
            for index, req in enumerate(remaining):
                target = (req.address.die, req.address.plane)
                if target not in covered:
                    pick_index = index
                    break
            if pick_index is None:
                # No request extends coverage; take them in base order.
                ordered.extend(remaining)
                break
            req = remaining.pop(pick_index)
            covered.add((req.address.die, req.address.plane))
            ordered.append(req)
        return ordered

    def _base_key(self, req: MemoryRequest) -> tuple:
        read_rank = 0 if (self.read_before_write and req.op is FlashOp.READ) else 1
        return (read_rank, req.io_id, req.request_id)
