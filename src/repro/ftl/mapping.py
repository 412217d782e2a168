"""Page-level address mapping FTL.

The paper's evaluation uses "a pure page-level address mapping FTL" (Section
5.1).  :class:`PageMapFTL` keeps a logical-to-physical map plus the reverse
map needed by garbage collection, performs dynamic page allocation for
writes, and exposes migration hooks used by GC, wear levelling and bad-block
replacement.  All timing is handled elsewhere; the FTL is pure bookkeeping.

Device preconditioning (:meth:`PageMapFTL.fill` and
:mod:`repro.lifetime.state`) adds one twist: on a fresh device every write
of a fill-then-overwrite pass lands in a purely *arithmetic* layout (the
allocator stripes write ``g`` onto plane ``g % P`` and fills blocks in
order), so :meth:`PageMapFTL.install_preconditioned` computes the pass's end
state instead of replaying it page by page.  The sequential base fill is
served implicitly: "logical pages ``0..live-1`` sit in the striped base
layout", and the explicit ``_map``/``_reverse`` dictionaries act as an
overlay for every page that is rewritten, migrated or erased (tracked in
``_base_moved``).  Behaviour is bit-identical to issuing every write through
:meth:`PageMapFTL.translate_write` - the tests compare full occupancy
snapshots - which is what makes aging a 512-chip device a bookkeeping
errand instead of a simulation campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.flash.chip import FlashChip, planes_by_key
from repro.flash.geometry import PhysicalPageAddress, SSDGeometry
from repro.ftl.allocation import AllocationOrder, PageAllocator

#: Swaps 0 and 1 bytes: base-copy validity -> "moved" flags.
_FLIP_BYTES = bytes.maketrans(b"\x00\x01", b"\x01\x00")

#: One live-page migration: ``(old_address, new_address)``.
Move = Tuple[PhysicalPageAddress, PhysicalPageAddress]


@dataclass
class FTLStats:
    """Counters describing FTL activity."""

    host_writes: int = 0
    host_reads: int = 0
    gc_writes: int = 0
    invalidations: int = 0
    migrations: int = 0


class PageMapFTL:
    """Pure page-mapped FTL with dynamic allocation and migration support."""

    def __init__(
        self,
        geometry: SSDGeometry,
        chips: Dict[tuple, FlashChip],
        allocation_order: AllocationOrder = AllocationOrder.CHANNEL_WAY_DIE_PLANE,
    ) -> None:
        self.geometry = geometry
        self.chips = chips
        self.allocator = PageAllocator(geometry, chips, allocation_order)
        self._map: Dict[int, PhysicalPageAddress] = {}
        self._reverse: Dict[PhysicalPageAddress, int] = {}
        #: Logical pages 0.._base_live-1 are implicitly mapped to the striped
        #: base layout (see install_preconditioned) unless flagged in
        #: _base_moved.  The moved flags are a flat byte-map indexed by LPN
        #: (sized at install time) rather than a set of ints: the aged-device
        #: overlay probe runs on every lookup/reverse-lookup, and a single C
        #: index beats hashing arbitrary-size ints - at an eighth of the
        #: memory.  _base_moved_count tracks the number of set flags.
        self._base_live = 0
        self._base_moved = bytearray()
        self._base_moved_count = 0
        self._plane_index: Dict[tuple, int] = {
            key: index for index, key in enumerate(self.allocator.plane_sequence)
        }
        #: Direct plane lookup: the invalidation path runs once per
        #: overwrite/migration (see :func:`repro.flash.chip.planes_by_key`).
        self._planes = planes_by_key(chips)
        self.stats = FTLStats()
        #: Readdressing target (paper Section 4.3): called with the
        #: ``(old, new)`` move list of every migration, from both
        #: :meth:`migrate_pages` and :meth:`migrate_page`.  ``None`` when no
        #: in-flight request can point at a moved page.
        self.readdress: Optional[Callable[[List[Move]], None]] = None

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate_read(self, lpn: int) -> PhysicalPageAddress:
        """Physical location of a logical page for a read.

        Never-written pages resolve to their static (striped) home so reads
        of a pristine drive still exercise the full resource layout.
        """
        self.stats.host_reads += 1
        address = self.lookup(lpn)
        if address is not None:
            return address
        return self.allocator.static_address(lpn)

    def translate_write(self, lpn: int) -> PhysicalPageAddress:
        """Allocate a fresh physical page for a write and update the map."""
        old = self.lookup(lpn)
        if old is not None:
            self._invalidate_physical(old)
            if lpn < self._base_live:
                self._mark_base_moved(lpn)
        address = self.allocator.allocate()
        self._map[lpn] = address
        self._reverse[address] = lpn
        self.stats.host_writes += 1
        return address

    def lookup(self, lpn: int) -> Optional[PhysicalPageAddress]:
        """Current mapping of a logical page, or ``None`` if never written."""
        address = self._map.get(lpn)
        if address is not None:
            return address
        if lpn < self._base_live and not self._base_moved[lpn]:
            return self.allocator.static_address(lpn)
        return None

    def reverse_lookup(self, address: PhysicalPageAddress) -> Optional[int]:
        """Logical page stored at a physical address, or ``None`` if stale/free."""
        lpn = self._reverse.get(address)
        if lpn is not None:
            return lpn
        lpn = self._base_lpn(address)
        if lpn is not None and not self._base_moved[lpn]:
            return lpn
        return None

    def _base_lpn(self, address: PhysicalPageAddress) -> Optional[int]:
        """The base-layout LPN stored at ``address``, if any.

        Inverse of the striped base layout: only meaningful for addresses
        inside the installed base fill (``lpn < _base_live``); everything
        else returns ``None``.
        """
        if not self._base_live:
            return None
        plane_index = self._plane_index[address.plane_key]
        position = address.block * self.geometry.pages_per_block + address.page
        lpn = position * len(self._plane_index) + plane_index
        if lpn < self._base_live:
            return lpn
        return None

    @property
    def mapped_pages(self) -> int:
        """Number of logical pages with a live physical mapping."""
        return len(self._map) + self._base_live - self._base_moved_count

    def mapping_items(self):
        """Live ``(lpn, address)`` pairs (iteration order unspecified).

        Merges the explicit overlay map with the implicit base layout.
        Read-only view used by occupancy snapshots and device-state
        verification; mutate the map only through the translate/migrate API.
        """
        if not self._base_live:
            return self._map.items()
        return self._iter_mapping_items()

    def _iter_mapping_items(self):
        yield from self._map.items()
        static = self.allocator.static_address
        moved = self._base_moved
        for lpn in range(self._base_live):
            if not moved[lpn]:
                yield lpn, static(lpn)

    def install_preconditioned(self, live: int, overwrite_lpns: Iterable[int]) -> int:
        """Precondition a pristine FTL in one bulk pass.

        Leaves exactly the state that writing logical pages ``0..live-1``
        and then each of ``overwrite_lpns`` (in order) through
        :meth:`translate_write` would: the same mapping, block bits, plane
        aggregates, allocator cursor and counters.  Nothing is replayed,
        because on a pristine device every address is arithmetic:

        * **Destinations are fixed.**  No plane fills during the pass, so the
          round-robin allocator puts the ``g``-th write of the pass on plane
          ``g % P`` at that plane's position ``g // P`` - the striped
          layout of :meth:`PageAllocator.static_address`.
        * **Liveness follows from the last write.**  A destination is valid
          iff it is the last write of its LPN; the base copy of every
          overwritten LPN is stale.
        * **Blocks and planes are set once**, per plane, by
          :meth:`repro.flash.plane.Plane.install_programmed`.

        The base fill stays implicit (``lookup``/``reverse_lookup`` fall
        through to the stripe formula); only the overwritten LPNs get
        explicit map entries.  ``overwrite_lpns`` is consumed once, straight
        into a last-writer map, so the draws are never held as a list.
        Returns the number of overwrites installed.

        Raises ``ValueError`` when the FTL or its device is not pristine,
        ``live`` is out of range, an LPN is negative, or the plan needs more
        page writes than the device holds (a plane would fill mid-pass).
        """
        if self._base_live or self._map or self._reverse or self.allocator.cursor != 0:
            raise ValueError("bulk preconditioning needs a fresh FTL (nothing mapped yet)")
        if not all(plane.is_pristine for plane in self._planes.values()):
            raise ValueError(
                "bulk preconditioning needs a pristine device "
                "(no bad or programmed blocks); replay the writes instead"
            )
        total = self.geometry.total_pages
        if not 0 <= live <= total:
            raise ValueError(f"live page count {live} out of range [0, {total}]")
        # 1. Last-writer map: LPN -> index g of its final write in the pass
        #    (step 2 swaps each index for its address in place, and the dict
        #    becomes the explicit map).  The capped index range stops a
        #    runaway plan one write past the device's capacity.
        last: Dict[int, object] = {}
        indices = iter(range(live, total + 1))
        last.update(zip(overwrite_lpns, indices))
        end = next(indices, total + 1)
        if end > total:
            raise ValueError(
                f"preconditioning plan exceeds the device's {total} pages: "
                "a plane would fill mid-pass"
            )
        if last and min(last) < 0:
            raise ValueError("overwrite LPNs must be non-negative")
        # 2. One pass over the surviving writes: mark each valid, supersede
        #    its base copy, and turn the write index into its address.
        sequence = self.allocator.plane_sequence
        num_planes = len(sequence)
        pages_per_block = self.geometry.pages_per_block
        new_address = tuple.__new__
        address_cls = PhysicalPageAddress
        reverse = self._reverse
        valid = bytearray(b"\x01") * live + bytearray(end - live)
        fresh = 0
        for lpn, index in last.items():
            valid[index] = 1
            if lpn < live:
                valid[lpn] = 0
            else:
                fresh += 1
            position, plane_index = divmod(index, num_planes)
            address = new_address(
                address_cls, sequence[plane_index] + divmod(position, pages_per_block)
            )
            last[lpn] = address
            reverse[address] = lpn
        self._map = last
        # 3. Blocks and planes, one install per plane.
        for plane_index, plane_key in enumerate(sequence):
            self._planes[plane_key].install_programmed(valid[plane_index::num_planes])
        # 4. Implicit base layout, allocator cursor and counters.
        moved = valid[:live].translate(_FLIP_BYTES)
        self._base_live = live
        self._base_moved = moved
        self._base_moved_count = moved.count(1)
        self.allocator.cursor = end % num_planes
        overwrites = end - live
        self.stats.host_writes += end
        self.stats.invalidations += overwrites - fresh
        return overwrites

    # ------------------------------------------------------------------
    # Invalidation and migration
    # ------------------------------------------------------------------
    def _mark_base_moved(self, lpn: int) -> None:
        """Flag a base-layout LPN as rewritten/migrated (idempotent)."""
        moved = self._base_moved
        if not moved[lpn]:
            moved[lpn] = 1
            self._base_moved_count += 1

    def _invalidate_physical(self, address: PhysicalPageAddress) -> None:
        plane = self._planes[address[:4]]
        plane.blocks[address.block].invalidate(address.page)
        self._reverse.pop(address, None)
        self.stats.invalidations += 1

    def migrate_page(
        self, lpn: int, preferred_plane: Optional[tuple] = None
    ) -> Tuple[PhysicalPageAddress, PhysicalPageAddress]:
        """Move a live logical page to a new physical location.

        Used by garbage collection, wear levelling and bad-block replacement.
        Returns ``(old_address, new_address)`` and hands the move to the
        readdressing target.
        """
        old = self.lookup(lpn)
        if old is None:
            raise KeyError(f"lpn {lpn} has no live mapping to migrate")
        new = self.allocator.allocate(preferred_plane=preferred_plane)
        self._invalidate_physical(old)
        if lpn < self._base_live:
            self._mark_base_moved(lpn)
        self._map[lpn] = new
        self._reverse[new] = lpn
        self.stats.migrations += 1
        self.stats.gc_writes += 1
        if self.readdress is not None:
            self.readdress([(old, new)])
        return old, new

    def valid_lpns_in_block(
        self, plane_key: tuple, block_id: int, valid_mask: int
    ) -> Tuple[List[int], List[Optional[int]]]:
        """LPNs stored at the set bits of ``valid_mask``, ascending page order.

        Returns parallel ``(pages, lpns)`` lists; a page whose valid bit is
        set but that has no live mapping yields ``None`` (an orphan - the
        garbage collector counts those loudly).  One bulk reverse-map pass:
        the explicit reverse map is probed with plain tuples (which hash and
        compare equal to :class:`PhysicalPageAddress`) and the base-layout
        fallback is inlined arithmetic, so no per-page address objects or
        method calls are paid.
        """
        channel, chip, die, plane = plane_key
        reverse_get = self._reverse.get
        base_live = self._base_live
        if base_live:
            plane_index = self._plane_index[plane_key]
            num_planes = len(self._plane_index)
            base_position = block_id * self.geometry.pages_per_block
            moved = self._base_moved
        pages: List[int] = []
        lpns: List[Optional[int]] = []
        mask = valid_mask
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            page = low_bit.bit_length() - 1
            lpn = reverse_get((channel, chip, die, plane, block_id, page))
            if lpn is None and base_live:
                candidate = (base_position + page) * num_planes + plane_index
                if candidate < base_live and not moved[candidate]:
                    lpn = candidate
            pages.append(page)
            lpns.append(lpn)
        return pages, lpns

    def migrate_pages(
        self,
        plane_key: tuple,
        block_id: int,
        pages: List[int],
        lpns: List[int],
        runs_out: Optional[List[Tuple[int, int]]] = None,
    ) -> List[Move]:
        """Bulk-migrate live pages out of one victim block.

        ``lpns[i]`` currently lives at ``pages[i]`` of ``block_id`` on
        ``plane_key``.  Equivalent to calling :meth:`migrate_page` for each
        LPN in order with ``preferred_plane=plane_key`` - identical
        destination addresses, counters and readdressing moves - but
        with the per-page round trips batched: destinations come from whole
        active-block runs (:meth:`repro.flash.plane.Plane.allocate_run`),
        the victim's valid bits clear in one mask update, and the
        overlay/reverse-map bookkeeping is a single pass.  Returns the
        ``(old, new)`` move list.

        The batching is legal because nothing a migration mutates feeds back
        into the pass itself: destinations never land in the (full) victim
        block and each LPN appears at most once.

        ``runs_out``, when given, receives one ``(start_page, count)`` entry
        per destination page span (covering every move, in order) so the
        caller can price program latencies per span instead of per page.
        """
        channel, chip, die, plane = plane_key
        count = len(lpns)
        plane_obj = self._planes[plane_key]
        allocator = self.allocator
        allocate_run = plane_obj.allocate_run
        # Addresses are built with tuple.__new__ instead of the NamedTuple
        # constructor: identical objects, half the construction cost, and
        # this is the hottest allocation site in GC-bound runs.
        new_address = tuple.__new__
        address_cls = PhysicalPageAddress
        # 1. Invalidate the victim pages in one mask update.  Safe to do
        #    before allocating destinations: the victim block is full, so no
        #    destination can land in it, and allocation never reads valid
        #    bits.
        victim_mask = 0
        for page in pages:
            victim_mask |= 1 << page
        plane_obj.blocks[block_id].invalidate_mask(victim_mask)
        # 2. One fused pass per destination run: allocate, then do the
        #    overlay/reverse-map bookkeeping for each page of the run
        #    immediately.  The destination sequence is exactly what the
        #    per-page path's allocate(preferred_plane=...) calls would
        #    produce, including the global round-robin fallback once the
        #    plane fills up (bookkeeping never feeds back into allocation).
        explicit_map = self._map
        reverse = self._reverse
        reverse_pop = reverse.pop
        base_live = self._base_live
        moved = self._base_moved
        newly_moved = 0
        moves: List[Move] = []
        append_move = moves.append
        index = 0
        remaining = count
        while remaining:
            run = allocate_run(remaining)
            if run is None:
                # Fallback: plane full - the allocator picks the next plane
                # in its global round-robin order (a cross-plane move).
                new = allocator.allocate(preferred_plane=plane_key)
                lpn = lpns[index]
                old = new_address(
                    address_cls, (channel, chip, die, plane, block_id, pages[index])
                )
                reverse_pop(old, None)
                if lpn < base_live and not moved[lpn]:
                    moved[lpn] = 1
                    newly_moved += 1
                explicit_map[lpn] = new
                reverse[new] = lpn
                append_move((old, new))
                if runs_out is not None:
                    runs_out.append((new[5], 1))
                index += 1
                remaining -= 1
                continue
            run_block, start, run_count = run
            if runs_out is not None:
                runs_out.append((start, run_count))
            end = index + run_count
            run_lpns = lpns[index:end]
            # Bulk the whole run through C-level machinery: comprehensions
            # for the address objects, dict.update/extend for the maps and
            # move list.  This replaces the interpreted per-page loop body
            # (the hottest code in GC-bound runs) with a handful of C calls
            # per destination run.
            news = [
                new_address(address_cls, (channel, chip, die, plane, run_block, page))
                for page in range(start, start + run_count)
            ]
            olds = [
                new_address(address_cls, (channel, chip, die, plane, block_id, page))
                for page in pages[index:end]
            ]
            for old in olds:
                reverse_pop(old, None)
            if base_live:
                for lpn in run_lpns:
                    if lpn < base_live and not moved[lpn]:
                        moved[lpn] = 1
                        newly_moved += 1
            explicit_map.update(zip(run_lpns, news))
            reverse.update(zip(news, run_lpns))
            moves.extend(zip(olds, news))
            index = end
            remaining -= run_count
        self._base_moved_count += newly_moved
        stats = self.stats
        stats.invalidations += count
        stats.migrations += count
        stats.gc_writes += count
        if self.readdress is not None:
            self.readdress(moves)
        return moves

    def erase_block(
        self, chip_key: tuple, die: int, plane: int, block: int, *, swept: bool = False
    ) -> None:
        """Erase a block after its valid pages have been migrated away.

        ``swept=True`` is the caller's guarantee that no page of the block
        still has a reverse-map entry - true right after
        :meth:`migrate_pages` relocated every valid page (invalid pages
        dropped their entries when they were invalidated).  It skips the
        defensive straggler sweep; divergence from that guarantee is the
        same bookkeeping bug the garbage collector's orphan counter already
        surfaces loudly.
        """
        chip = self.chips[chip_key]
        plane_obj = chip.plane(die, plane)
        block_obj = plane_obj.blocks[block]
        # Drop reverse mappings of any straggler pages (there should be none
        # after migration, but stale entries must never survive an erase).
        # Plain tuples hash and compare equal to PhysicalPageAddress (a
        # NamedTuple), so the sweep probes the reverse map without
        # constructing one address object per page.
        channel, chip_idx = chip_key
        reverse_pop = self._reverse.pop
        explicit_map = self._map
        base_live = self._base_live
        if base_live:
            # Base-layout pages living in this block lose their implicit
            # mapping too (idempotent for pages already moved elsewhere).
            plane_index = self._plane_index[(channel, chip_idx, die, plane)]
            num_planes = len(self._plane_index)
            base_position = block * self.geometry.pages_per_block
            moved = self._base_moved
            newly_moved = 0
        if swept:
            if base_live:
                for page in range(block_obj.pages_per_block):
                    base_lpn = (base_position + page) * num_planes + plane_index
                    if base_lpn < base_live and not moved[base_lpn]:
                        moved[base_lpn] = 1
                        newly_moved += 1
                self._base_moved_count += newly_moved
            block_obj.erase()
            return
        for page in range(block_obj.pages_per_block):
            address = (channel, chip_idx, die, plane, block, page)
            lpn = reverse_pop(address, None)
            if lpn is not None and explicit_map.get(lpn) == address:
                del explicit_map[lpn]
            if base_live:
                base_lpn = (base_position + page) * num_planes + plane_index
                if base_lpn < base_live and not moved[base_lpn]:
                    moved[base_lpn] = 1
                    newly_moved += 1
        if base_live:
            self._base_moved_count += newly_moved
        block_obj.erase()

    # ------------------------------------------------------------------
    # Occupancy helpers
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of physical pages holding live data."""
        total = self.geometry.total_pages
        if total == 0:
            return 0.0
        return self.mapped_pages / total

    def fill(
        self,
        fraction: float,
        *,
        overwrite_fraction: float = 0.0,
        seed: int = 12345,
    ) -> int:
        """Pre-condition the SSD by writing ``fraction`` of its physical space.

        Used to create the "fragmented SSD filled by 95%" starting point of
        the GC experiment (Figure 17).  ``overwrite_fraction`` is the share
        of the pre-conditioning writes that are *overwrites* of already
        written logical pages, chosen pseudo-randomly (seeded, so runs are
        reproducible).  The overwrites scatter invalid pages across every
        block - exactly what a drive that was filled by random writes looks
        like, and what makes greedy garbage collection productive rather
        than pure thrash.

        Returns the number of page writes performed.  Bookkeeping only - no
        time is simulated: the writes are installed in one bulk pass by
        :meth:`install_preconditioned`, so the device must be pristine.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if not 0.0 <= overwrite_fraction < 1.0:
            raise ValueError("overwrite_fraction must be in [0, 1)")
        overwrites = int(self.geometry.total_pages * fraction * overwrite_fraction)
        target = int(self.geometry.total_pages * fraction) - overwrites
        return target + self.install_preconditioned(
            target, _sampled_overwrites(random.Random(seed), max(1, target), overwrites)
        )


def _sampled_overwrites(rng: random.Random, filled: int, count: int) -> Iterator[int]:
    """``count`` overwrite targets, drawn as ``rng.sample`` batches of LPNs below ``filled``.

    Sampling without replacement inside each batch spreads the surviving
    valid pages uniformly across blocks (no correlation with the
    plane/block striping of the sequential fill).
    """
    remaining = count
    while remaining > 0:
        batch = min(remaining, filled)
        yield from rng.sample(range(filled), batch)
        remaining -= batch
