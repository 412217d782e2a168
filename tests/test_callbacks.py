"""Tests for the readdressing callback."""

import pytest

from repro.flash.commands import FlashOp
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.ftl.callbacks import ReaddressingCallback
from repro.ftl.mapping import PageMapFTL


def address(channel=0, chip=0, die=0, plane=0, block=0, page=0):
    return PhysicalPageAddress(channel, chip, die, plane, block, page)


def request_at(addr, io_id=1):
    return MemoryRequest(io_id=io_id, op=FlashOp.READ, lpn=0, size_bytes=2048, address=addr)


class TestEnabledCallback:
    def test_retargets_tracked_request(self):
        callback = ReaddressingCallback(enabled=True)
        old, new = address(block=0), address(block=3)
        req = request_at(old)
        callback.track_request(req)
        callback.on_migrations([(old, new)])
        assert req.address == new
        assert req.penalty_ns == 0
        assert callback.stats.requests_retargeted == 1

    def test_untracked_request_not_touched(self):
        callback = ReaddressingCallback(enabled=True)
        old, new = address(block=0), address(block=3)
        req = request_at(old)
        callback.track_request(req)
        callback.untrack_request(req)
        callback.on_migrations([(old, new)])
        assert req.address == old

    def test_migration_of_unrelated_address(self):
        callback = ReaddressingCallback(enabled=True)
        req = request_at(address(block=5))
        callback.track_request(req)
        callback.on_migrations([(address(block=0), address(block=3))])
        assert req.address == address(block=5)

    def test_track_ignores_untranslated(self):
        callback = ReaddressingCallback(enabled=True)
        req = MemoryRequest(io_id=1, op=FlashOp.READ, lpn=0, size_bytes=2048)
        callback.track_request(req)
        # Translated later, the request was never tracked, so a migration of
        # its page leaves it alone.
        req.address = address(block=0)
        callback.on_migrations([(address(block=0), address(block=3))])
        assert req.address == address(block=0)
        assert callback.stats.requests_retargeted == 0


class TestDisabledCallback:
    def test_penalty_applied_instead_of_clean_retarget(self):
        callback = ReaddressingCallback(enabled=False, stale_penalty_ns=30_000)
        old, new = address(block=0), address(block=4)
        req = request_at(old)
        callback.track_request(req)
        callback.on_migrations([(old, new)])
        # The request still has to find the data (it is retargeted), but it
        # pays the stale re-translation penalty.
        assert req.address == new
        assert req.penalty_ns == 30_000
        assert callback.stats.requests_penalized == 1
        assert callback.stats.requests_retargeted == 0

    def test_multiple_migrations_accumulate_penalty(self):
        callback = ReaddressingCallback(enabled=False, stale_penalty_ns=10_000)
        a, b, c = address(block=0), address(block=1), address(block=2)
        req = request_at(a)
        callback.track_request(req)
        callback.on_migrations([(a, b)])
        callback.on_migrations([(b, c)])
        assert req.penalty_ns == 20_000


def _scenario(tracked_pages, move_pages, enabled):
    """A callback tracking requests on ``tracked_pages`` of block 0.

    Page 0 holds two requests, so one move can hit a shared bucket.  The
    moves relocate block-0 ``move_pages`` to block 1 of another plane;
    block-1 page 0 already has a tracked request, so one destination lands
    on a non-empty bucket.
    """
    callback = ReaddressingCallback(enabled=enabled, stale_penalty_ns=7_000)
    requests = [request_at(address(page=page)) for page in tracked_pages]
    requests.append(request_at(address(page=tracked_pages[0])))
    requests.append(request_at(address(plane=1, block=1, page=0)))
    for request in requests:
        callback.track_request(request)
    moves = [
        (address(page=page), address(plane=1, block=1, page=page)) for page in move_pages
    ]
    return callback, requests, moves


def _targets(requests):
    return [(req.address, req.penalty_ns) for req in requests]


def _buckets(callback, requests):
    """Tracked addresses -> positions of their requests in ``requests``."""
    position = {id(req): index for index, req in enumerate(requests)}
    return {
        addr: [position[id(req)] for req in bucket]
        for addr, bucket in callback._pending_index.items()
    }


class TestBatchedRetarget:
    """One ``on_migrations`` batch equals the same moves applied one at a time."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "tracked_pages, move_pages",
        [
            # Few tracked addresses, many moves: the pending-side probe.
            ([0, 5], list(range(15, -1, -1))),
            # Tracked addresses outnumber moves: the move walk.
            (list(range(12)), [0, 3, 11, 14]),
        ],
        ids=["pending-probe", "move-walk"],
    )
    def test_batch_matches_one_at_a_time(self, enabled, tracked_pages, move_pages):
        batched, batched_requests, moves = _scenario(tracked_pages, move_pages, enabled)
        single, single_requests, _ = _scenario(tracked_pages, move_pages, enabled)
        # The probe runs when tracked addresses are at most a quarter of
        # the moves; the parameter sets sit on either side of that line.
        probe = len(batched._pending_index) * 4 <= len(moves)
        assert probe == (len(tracked_pages) < len(move_pages))
        batched.on_migrations(moves)
        for move in moves:
            single.on_migrations([move])
        assert _targets(batched_requests) == _targets(single_requests)
        assert batched.stats == single.stats
        hits = sum(1 for page in tracked_pages if page in move_pages) + 1
        if enabled:
            assert batched.stats.requests_retargeted == hits
            assert batched.stats.requests_penalized == 0
        else:
            assert batched.stats.requests_penalized == hits
            assert batched.stats.requests_retargeted == 0
        # Bucket contents match too, so later migrations and untracking
        # behave the same.
        buckets = _buckets(batched, batched_requests)
        assert buckets == _buckets(single, single_requests)
        # The request already tracked at page 0's destination stays tracked,
        # ahead of the two that moved there.
        last = len(batched_requests) - 1
        assert buckets[address(plane=1, block=1, page=0)] == [last, 0, last - 1]


class TestFtlRoute:
    def test_cross_plane_fallback_still_retargets(self, small_geometry, small_chips):
        ftl = PageMapFTL(small_geometry, small_chips)
        callback = ReaddressingCallback(enabled=True)
        ftl.readdress = callback.on_migrations
        plane_key = (0, 0, 0, 0)
        plane = small_chips[(0, 0)].plane(0, 0)
        lpn = 0
        while not plane.blocks[0].is_full:
            ftl.translate_write(lpn)
            lpn += 1
        # Fill the rest of the plane so the relocation has to leave it.
        while plane.free_pages:
            plane.allocate_page()
        victim = plane.blocks[0]
        pages, lpns = ftl.valid_lpns_in_block(plane_key, 0, victim.valid_mask)
        assert None not in lpns
        old = ftl.lookup(lpns[3])
        request = request_at(old)
        callback.track_request(request)
        moves = ftl.migrate_pages(plane_key, 0, pages, lpns)
        assert all(new.plane_key != plane_key for _, new in moves)
        assert request.address == ftl.lookup(lpns[3])
        assert request.address.plane_key != plane_key
        assert callback.stats.requests_retargeted == 1
