"""Tests for the page-mapped FTL."""

import pytest

from repro.ftl.mapping import PageMapFTL


@pytest.fixture
def ftl(small_geometry, small_chips):
    return PageMapFTL(small_geometry, small_chips)


class TestTranslation:
    def test_read_of_unwritten_page_uses_static_layout(self, ftl):
        address = ftl.translate_read(42)
        assert address == ftl.allocator.static_address(42)

    def test_write_then_read_hits_mapping(self, ftl):
        written = ftl.translate_write(7)
        assert ftl.translate_read(7) == written
        assert ftl.lookup(7) == written

    def test_lookup_none_for_unwritten(self, ftl):
        assert ftl.lookup(99) is None

    def test_rewrite_invalidates_old_page(self, ftl, small_chips):
        first = ftl.translate_write(3)
        second = ftl.translate_write(3)
        assert first != second
        plane = small_chips[first.chip_key].plane(first.die, first.plane)
        assert not plane.blocks[first.block].is_valid(first.page)
        assert ftl.reverse_lookup(first) is None
        assert ftl.reverse_lookup(second) == 3

    def test_mapped_pages_counts_live_mappings(self, ftl):
        ftl.translate_write(1)
        ftl.translate_write(2)
        ftl.translate_write(1)
        assert ftl.mapped_pages == 2

    def test_stats_counters(self, ftl):
        ftl.translate_write(1)
        ftl.translate_read(1)
        ftl.translate_write(1)
        assert ftl.stats.host_writes == 2
        assert ftl.stats.host_reads == 1
        assert ftl.stats.invalidations == 1


class TestMigration:
    def test_migrate_updates_both_maps(self, ftl):
        original = ftl.translate_write(5)
        old, new = ftl.migrate_page(5)
        assert old == original
        assert new != original
        assert ftl.lookup(5) == new
        assert ftl.reverse_lookup(new) == 5
        assert ftl.reverse_lookup(old) is None

    def test_migrate_unmapped_raises(self, ftl):
        with pytest.raises(KeyError):
            ftl.migrate_page(77)

    def test_migrate_prefers_plane(self, ftl):
        ftl.translate_write(5)
        preferred = (1, 1, 0, 1)
        _, new = ftl.migrate_page(5, preferred_plane=preferred)
        assert new.plane_key == preferred

    def test_migration_listener_invoked(self, ftl):
        batches = []
        ftl.readdress = batches.append
        ftl.translate_write(9)
        old, new = ftl.migrate_page(9)
        assert batches == [[(old, new)]]

    def test_migration_counters(self, ftl):
        ftl.translate_write(4)
        ftl.migrate_page(4)
        assert ftl.stats.migrations == 1
        assert ftl.stats.gc_writes == 1


class TestEraseBlock:
    def test_erase_clears_mappings_and_block(self, ftl, small_chips):
        address = ftl.translate_write(11)
        ftl.erase_block(address.chip_key, address.die, address.plane, address.block)
        assert ftl.lookup(11) is None
        assert ftl.reverse_lookup(address) is None
        plane = small_chips[address.chip_key].plane(address.die, address.plane)
        assert plane.blocks[address.block].is_free
        assert plane.blocks[address.block].erase_count == 1


class TestFill:
    def test_fill_writes_requested_fraction(self, ftl, small_geometry):
        written = ftl.fill(0.5)
        assert written == int(small_geometry.total_pages * 0.5)
        assert ftl.utilization() == pytest.approx(0.5, abs=0.01)

    def test_fill_with_overwrites_creates_invalid_pages(self, small_geometry, small_chips):
        ftl = PageMapFTL(small_geometry, small_chips)
        ftl.fill(0.8, overwrite_fraction=0.4)
        invalid = 0
        for chip in small_chips.values():
            for plane in chip.iter_planes():
                for block in plane.blocks:
                    invalid += block.invalid_count
        assert invalid > 0
        # Live data is less than the total pages written.
        assert ftl.utilization() < 0.8

    def test_fill_rejects_bad_fraction(self, ftl):
        with pytest.raises(ValueError):
            ftl.fill(1.5)
        with pytest.raises(ValueError):
            ftl.fill(0.5, overwrite_fraction=1.0)

    def test_fill_zero_is_noop(self, ftl):
        assert ftl.fill(0.0) == 0
        assert ftl.utilization() == 0.0

    def test_utilization_empty(self, ftl):
        assert ftl.utilization() == 0.0


class TestBaseLayout:
    """The implicit (lazy) base layout behind fast-forward aging."""

    def install(self, ftl, small_geometry, live=64):
        ftl.install_preconditioned(live, ())
        return live

    def test_base_pages_resolve_like_written_pages(self, ftl, small_geometry):
        live = self.install(ftl, small_geometry)
        assert ftl.mapped_pages == live
        for lpn in range(live):
            address = ftl.lookup(lpn)
            assert address == ftl.allocator.static_address(lpn)
            assert ftl.reverse_lookup(address) == lpn
        assert ftl.lookup(live) is None

    def test_mapping_items_merge_base_and_overlay(self, ftl, small_geometry):
        live = self.install(ftl, small_geometry)
        rewritten = ftl.translate_write(3)
        items = dict(ftl.mapping_items())
        assert len(items) == live
        assert items[3] == rewritten
        assert items[4] == ftl.allocator.static_address(4)

    def test_overwrite_invalidates_base_page(self, ftl, small_geometry):
        self.install(ftl, small_geometry)
        old = ftl.lookup(5)
        new = ftl.translate_write(5)
        assert new != old
        assert ftl.reverse_lookup(old) is None
        assert ftl.reverse_lookup(new) == 5
        assert ftl.lookup(5) == new
        block = ftl.chips[old.chip_key].plane(old.die, old.plane).blocks[old.block]
        assert not block.is_valid(old.page)

    def test_migrate_base_page(self, ftl, small_geometry):
        self.install(ftl, small_geometry)
        old, new = ftl.migrate_page(2)
        assert old == ftl.allocator.static_address(2)
        assert ftl.lookup(2) == new
        assert ftl.reverse_lookup(old) is None

    def test_erase_block_removes_base_stragglers(self, ftl, small_geometry):
        live = self.install(ftl, small_geometry)
        victim = ftl.allocator.static_address(0)
        before = ftl.mapped_pages
        ftl.erase_block(victim.chip_key, victim.die, victim.plane, victim.block)
        assert ftl.lookup(0) is None
        assert ftl.reverse_lookup(victim) is None
        assert ftl.mapped_pages < before

    def test_install_requires_fresh_ftl(self, ftl, small_geometry):
        ftl.translate_write(0)
        with pytest.raises(ValueError):
            ftl.install_preconditioned(16, ())

    def test_install_rejects_out_of_range(self, ftl, small_geometry):
        with pytest.raises(ValueError):
            ftl.install_preconditioned(small_geometry.total_pages + 1, ())
