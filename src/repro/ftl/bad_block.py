"""Bad block management.

NAND blocks wear out or arrive factory-bad; the firmware retires them and
remaps their live contents elsewhere.  The paper lists bad-block replacement
as the third source of live data migration handled by the readdressing
callback (Section 4.3).  :class:`BadBlockManager` supports both
factory-marked bad blocks (configured up front) and grown bad blocks
(injected at runtime, e.g. by tests or failure-injection experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.flash.chip import FlashChip
from repro.flash.geometry import PhysicalPageAddress, SSDGeometry
from repro.ftl.mapping import PageMapFTL


@dataclass
class BadBlockRecord:
    """One retired block."""

    chip_key: tuple
    die: int
    plane: int
    block: int
    grown: bool
    pages_relocated: int


class BadBlockManager:
    """Tracks retired blocks and relocates their live data."""

    def __init__(
        self,
        geometry: SSDGeometry,
        ftl: PageMapFTL,
        chips: Dict[tuple, FlashChip],
    ) -> None:
        self.geometry = geometry
        self.ftl = ftl
        self.chips = chips
        self.records: List[BadBlockRecord] = []

    @property
    def bad_block_count(self) -> int:
        """Number of blocks retired so far."""
        return len(self.records)

    def is_bad(self, chip_key: tuple, die: int, plane: int, block: int) -> bool:
        """True when a block has been retired."""
        plane_obj = self.chips[chip_key].plane(die, plane)
        return plane_obj.blocks[block].is_bad

    def mark_factory_bad(self, chip_key: tuple, die: int, plane: int, block: int) -> None:
        """Retire a block that never held data (factory bad block)."""
        plane_obj = self.chips[chip_key].plane(die, plane)
        block_obj = plane_obj.blocks[block]
        if block_obj.write_pointer > 0:
            raise ValueError("factory bad blocks must be marked before any write")
        block_obj.mark_bad()
        self.records.append(
            BadBlockRecord(chip_key, die, plane, block, grown=False, pages_relocated=0)
        )

    def retire_block(
        self, chip_key: tuple, die: int, plane: int, block: int
    ) -> BadBlockRecord:
        """Retire a grown bad block, relocating any live pages first.

        Returns the record describing the retirement.  Live pages are moved
        through the FTL's migration path, so the readdressing callback sees
        every move.
        """
        channel, chip_idx = chip_key
        plane_obj = self.chips[chip_key].plane(die, plane)
        block_obj = plane_obj.blocks[block]
        relocated = 0
        for page in range(block_obj.pages_per_block):
            if not block_obj.is_valid(page):
                continue
            address = PhysicalPageAddress(
                channel=channel, chip=chip_idx, die=die, plane=plane, block=block, page=page
            )
            lpn = self.ftl.reverse_lookup(address)
            if lpn is None:
                block_obj.invalidate(page)
                continue
            self.ftl.migrate_page(lpn)
            relocated += 1
        block_obj.mark_bad()
        record = BadBlockRecord(
            chip_key, die, plane, block, grown=True, pages_relocated=relocated
        )
        self.records.append(record)
        return record

    def spare_capacity_pages(self) -> int:
        """Programmable pages remaining after excluding retired blocks."""
        return sum(chip.free_pages for chip in self.chips.values())
