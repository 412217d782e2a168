"""Tests for the FARO priority policy and the RIOS traversal."""


from repro.core.faro import FaroPolicy
from repro.core.rios import RiosTraversal
from repro.flash.commands import FlashOp
from repro.flash.geometry import PhysicalPageAddress, SSDGeometry
from repro.flash.request import MemoryRequest
from scheduler_oracles import connectivity, overlap_depth


def make_request(io_id=1, op=FlashOp.READ, die=0, plane=0, page=0, chip=(0, 0)):
    channel, chip_idx = chip
    return MemoryRequest(
        io_id=io_id,
        op=op,
        lpn=page,
        size_bytes=2048,
        address=PhysicalPageAddress(channel, chip_idx, die, plane, 0, page),
    )


def faro_ranks(candidates):
    """FARO rank of each chip's request list: (overlap depth, connectivity)."""
    return {
        chip_key: (overlap_depth(requests), connectivity(requests))
        for chip_key, requests in candidates.items()
    }


class TestFaroMetrics:
    def test_overlap_depth_counts_distinct_targets(self):
        requests = [
            make_request(die=0, plane=0),
            make_request(die=0, plane=1),
            make_request(die=1, plane=0),
            make_request(die=0, plane=0, page=9),  # duplicate plane target
        ]
        assert overlap_depth(requests) == 3

    def test_overlap_depth_ignores_untranslated(self):
        untranslated = MemoryRequest(io_id=1, op=FlashOp.READ, lpn=0, size_bytes=2048)
        assert overlap_depth([untranslated]) == 0

    def test_connectivity_max_same_io(self):
        requests = [
            make_request(io_id=1),
            make_request(io_id=1, page=1),
            make_request(io_id=2, page=2),
        ]
        assert connectivity(requests) == 2

    def test_connectivity_empty(self):
        assert connectivity([]) == 0


class TestFaroPolicy:
    def test_best_chip_prefers_higher_overlap_depth(self):
        policy = FaroPolicy()
        candidates = {
            (0, 0): [make_request(die=0, plane=0), make_request(die=1, plane=1, page=1)],
            (0, 1): [make_request(chip=(0, 1))],
        }
        assert policy.best_chip(faro_ranks(candidates)) == (0, 0)

    def test_best_chip_ties_broken_by_connectivity(self):
        policy = FaroPolicy()
        # Both chips have overlap depth 1; chip (0,1) has two requests of the
        # same I/O (connectivity 2).
        candidates = {
            (0, 0): [make_request(io_id=1)],
            (0, 1): [
                make_request(io_id=2, chip=(0, 1), die=0, plane=0, page=0),
                make_request(io_id=2, chip=(0, 1), die=0, plane=0, page=1),
            ],
        }
        assert policy.best_chip(faro_ranks(candidates)) == (0, 1)
        # A full tie goes to the lowest chip key, whatever the map order.
        assert policy.best_chip({(1, 0): (1, 1), (0, 1): (1, 1), (0, 2): (1, 1)}) == (0, 1)

    def test_best_chip_empty(self):
        assert FaroPolicy().best_chip({}) is None

    def test_order_requests_extends_coverage_first(self):
        policy = FaroPolicy()
        requests = [
            make_request(io_id=1, die=0, plane=0, page=0),
            make_request(io_id=1, die=0, plane=0, page=1),  # duplicate plane
            make_request(io_id=2, die=1, plane=1, page=2),
        ]
        ordered = policy.order_requests(requests)
        first_two_targets = {(req.address.die, req.address.plane) for req in ordered[:2]}
        assert first_two_targets == {(0, 0), (1, 1)}
        assert len(ordered) == 3

    def test_order_requests_reads_before_writes(self):
        policy = FaroPolicy(read_before_write=True)
        write = make_request(io_id=1, op=FlashOp.PROGRAM, die=0, plane=0)
        read = make_request(io_id=2, op=FlashOp.READ, die=0, plane=0, page=3)
        ordered = policy.order_requests([write, read])
        assert ordered[0] is read

    def test_order_requests_keeps_fifo_when_hazard_disabled(self):
        policy = FaroPolicy(read_before_write=False)
        write = make_request(io_id=1, op=FlashOp.PROGRAM, die=0, plane=0)
        read = make_request(io_id=2, op=FlashOp.READ, die=0, plane=0, page=3)
        ordered = policy.order_requests([write, read])
        assert ordered[0] is write


class TestRiosTraversal:
    def make_geometry(self):
        return SSDGeometry(
            num_channels=2,
            chips_per_channel=3,
            dies_per_chip=2,
            planes_per_die=2,
            blocks_per_plane=4,
            pages_per_block=8,
        )

    def test_order_is_offset_major(self):
        traversal = RiosTraversal(self.make_geometry())
        assert traversal.order[:4] == ((0, 0), (1, 0), (0, 1), (1, 1))
        assert len(traversal) == 6

    def test_channel_first_option(self):
        traversal = RiosTraversal(self.make_geometry(), channel_first=True)
        assert traversal.order[:3] == ((0, 0), (0, 1), (0, 2))

    def test_next_chip_skips_idle(self):
        traversal = RiosTraversal(self.make_geometry())
        target = (0, 1)
        found = traversal.next_chip(lambda key: key == target)
        assert found == target

    def test_next_chip_round_robins(self):
        traversal = RiosTraversal(self.make_geometry())
        first = traversal.next_chip(lambda key: True)
        second = traversal.next_chip(lambda key: True)
        assert first != second

    def test_next_chip_none_without_work(self):
        traversal = RiosTraversal(self.make_geometry())
        assert traversal.next_chip(lambda key: False) is None

    def test_reset(self):
        traversal = RiosTraversal(self.make_geometry())
        traversal.next_chip(lambda key: True)
        traversal.reset()
        assert traversal.cursor == 0

    def test_cursor_wraps(self):
        traversal = RiosTraversal(self.make_geometry())
        for _ in range(len(traversal) + 1):
            traversal.next_chip(lambda key: True)
        assert 0 <= traversal.cursor < len(traversal)
