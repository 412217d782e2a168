"""Bulk device preconditioning: ``PageMapFTL.install_preconditioned``.

The kernel computes the end state of "write LPNs ``0..live-1``, then each
overwrite LPN" without replaying it.  These tests hold it to the per-page
``translate_write`` replay it replaces, on generated geometries and for both
recipes that feed it (``PageMapFTL.fill`` and ``apply_device_state``).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.chip import FlashChip
from repro.flash.geometry import SSDGeometry
from repro.ftl.allocation import AllocationOrder
from repro.ftl.mapping import PageMapFTL
from repro.lifetime.state import DeviceState, occupancy_snapshot
from repro.sim.config import SimulationConfig
from repro.sim.ssd import SSDSimulator

geometries = st.builds(
    SSDGeometry,
    num_channels=st.integers(min_value=1, max_value=3),
    chips_per_channel=st.integers(min_value=1, max_value=3),
    dies_per_chip=st.integers(min_value=1, max_value=2),
    planes_per_die=st.integers(min_value=1, max_value=2),
    blocks_per_plane=st.integers(min_value=1, max_value=4),
    pages_per_block=st.integers(min_value=1, max_value=8),
)


def fresh_ftl(geometry, order=AllocationOrder.CHANNEL_WAY_DIE_PLANE):
    chips = {key: FlashChip(key, geometry) for key in geometry.iter_chip_keys()}
    return PageMapFTL(geometry, chips, order)


def replay(ftl, live, overwrite_lpns):
    for lpn in range(live):
        ftl.translate_write(lpn)
    for lpn in overwrite_lpns:
        ftl.translate_write(lpn)


def legacy_fill(ftl, fraction, overwrite_fraction=0.0, seed=12345):
    """The per-page ``PageMapFTL.fill`` loop the bulk kernel replaced."""
    overwrites = int(ftl.geometry.total_pages * fraction * overwrite_fraction)
    target = int(ftl.geometry.total_pages * fraction) - overwrites
    for lpn in range(target):
        ftl.translate_write(lpn)
    filled = max(1, target)
    rng = random.Random(seed)
    remaining = overwrites
    while remaining > 0:
        batch = min(remaining, filled)
        for lpn in rng.sample(range(filled), batch):
            ftl.translate_write(lpn)
        remaining -= batch
    return target + overwrites


def device_view(ftl):
    """Everything the kernel must reproduce, as one comparable value."""
    planes = tuple(
        (plane.free_blocks, plane.free_pages, plane.valid_pages)
        for chip in ftl.chips.values()
        for plane in chip.iter_planes()
    )
    return occupancy_snapshot(ftl), ftl.stats, planes, ftl.allocator.cursor, ftl.mapped_pages


def assert_same_device(bulk, reference):
    assert device_view(bulk) == device_view(reference)
    for lpn, address in reference.mapping_items():
        assert bulk.lookup(lpn) == address
        assert bulk.reverse_lookup(address) == lpn


@st.composite
def plans(draw):
    geometry = draw(geometries)
    total = geometry.total_pages
    live = draw(st.integers(min_value=0, max_value=total))
    # Targets reach a little past the live set: fill produces LPNs >= live
    # when its sequential target rounds to 0.
    lpns = st.integers(min_value=0, max_value=live + 2)
    overwrites = draw(st.lists(lpns, max_size=total - live))
    order = draw(st.sampled_from(list(AllocationOrder)))
    return geometry, order, live, overwrites


class TestMatchesReplay:
    @given(plan=plans())
    @settings(max_examples=150, deadline=None)
    def test_bulk_install_matches_per_page_replay(self, plan):
        geometry, order, live, overwrites = plan
        bulk = fresh_ftl(geometry, order)
        reference = fresh_ftl(geometry, order)
        assert bulk.install_preconditioned(live, iter(overwrites)) == len(overwrites)
        replay(reference, live, overwrites)
        assert_same_device(bulk, reference)

    @pytest.mark.parametrize(
        "live, overwrites",
        [
            (0, []),
            (0, [0, 0, 3]),
            (40, []),
            (40, [5, 5, 5, 39, 0]),
            (10, [10, 11, 10, 2]),
        ],
        ids=["empty", "nothing-live", "no-overwrites", "repeats", "beyond-live"],
    )
    def test_edge_cases(self, small_geometry, live, overwrites):
        bulk = fresh_ftl(small_geometry)
        reference = fresh_ftl(small_geometry)
        bulk.install_preconditioned(live, overwrites)
        replay(reference, live, overwrites)
        assert_same_device(bulk, reference)

    def test_full_device(self, small_geometry):
        total = small_geometry.total_pages
        bulk = fresh_ftl(small_geometry)
        reference = fresh_ftl(small_geometry)
        bulk.install_preconditioned(total - 8, range(8))
        replay(reference, total - 8, range(8))
        assert_same_device(bulk, reference)
        planes = [plane for chip in bulk.chips.values() for plane in chip.iter_planes()]
        assert all(plane.free_pages == 0 for plane in planes)

    def test_writes_after_install_match(self, small_geometry):
        bulk = fresh_ftl(small_geometry)
        reference = fresh_ftl(small_geometry)
        bulk.install_preconditioned(100, [3, 7, 3, 120])
        replay(reference, 100, [3, 7, 3, 120])
        for lpn in (3, 50, 120, 200):
            assert bulk.translate_write(lpn) == reference.translate_write(lpn)
        assert_same_device(bulk, reference)

    @given(
        geometry=geometries,
        fraction=st.floats(min_value=0.0, max_value=1.0),
        overwrite_fraction=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_fill_matches_legacy_per_page_fill(self, geometry, fraction, overwrite_fraction, seed):
        bulk = fresh_ftl(geometry)
        reference = fresh_ftl(geometry)
        written = bulk.fill(fraction, overwrite_fraction=overwrite_fraction, seed=seed)
        assert written == legacy_fill(reference, fraction, overwrite_fraction, seed)
        assert_same_device(bulk, reference)


class TestNamedErrors:
    def test_rejects_ftl_with_mappings(self, small_geometry):
        ftl = fresh_ftl(small_geometry)
        ftl.translate_write(0)
        with pytest.raises(ValueError, match="fresh FTL"):
            ftl.install_preconditioned(16, [1])

    def test_rejects_device_with_bad_block(self, small_geometry):
        ftl = fresh_ftl(small_geometry)
        ftl.chips[(0, 0)].plane(0, 0).blocks[0].mark_bad()
        with pytest.raises(ValueError, match="pristine device"):
            ftl.install_preconditioned(16, [1])

    def test_rejects_plan_that_fills_a_plane(self, small_geometry):
        ftl = fresh_ftl(small_geometry)
        before = device_view(ftl)
        with pytest.raises(ValueError, match="fill mid-pass"):
            ftl.install_preconditioned(small_geometry.total_pages - 1, [0, 1])
        # Refused before anything was installed.
        assert device_view(ftl) == before

    def test_rejects_negative_lpn(self, small_geometry):
        ftl = fresh_ftl(small_geometry)
        with pytest.raises(ValueError, match="non-negative"):
            ftl.install_preconditioned(16, [3, -1])


class TestNoPerPageReplay:
    """Simulator construction preconditions without a single translate_write."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"device_state": DeviceState(fill_fraction=0.8, invalid_fraction=0.3, seed=5)},
            {"prefill_fraction": 0.9, "prefill_overwrite_fraction": 0.3},
        ],
        ids=["device-state", "prefill"],
    )
    def test_preconditioning_makes_no_translate_write_calls(self, monkeypatch, overrides):
        calls = []
        original = PageMapFTL.translate_write

        def counting(self, lpn):
            calls.append(lpn)
            return original(self, lpn)

        monkeypatch.setattr(PageMapFTL, "translate_write", counting)
        simulator = SSDSimulator(SimulationConfig.small(**overrides), "SPK3")
        assert simulator.ftl.mapped_pages > 0
        assert simulator.ftl.stats.invalidations > 0
        assert calls == []
