"""Tests for the NVMHC substrate: device queue, tags, DMA engine."""

import pytest

from repro.flash.commands import FlashOp
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.nvmhc.dma import DmaEngine
from repro.nvmhc.queue import DeviceQueue
from repro.nvmhc.tag import Tag
from repro.workloads.request import IOKind, IORequest


def make_io(arrival=0, size=4096, kind=IOKind.READ, offset=0):
    return IORequest(kind=kind, offset_bytes=offset, size_bytes=size, arrival_ns=arrival)


def make_request(io_id, chip=(0, 0), die=0, plane=0, page=0):
    channel, chip_idx = chip
    return MemoryRequest(
        io_id=io_id,
        op=FlashOp.READ,
        lpn=page,
        size_bytes=2048,
        address=PhysicalPageAddress(channel, chip_idx, die, plane, 0, page),
    )


class TestDeviceQueue:
    def test_submit_within_depth(self):
        queue = DeviceQueue(depth=2)
        tag = queue.submit(make_io(), 10)
        assert tag is not None
        assert queue.occupancy == 1
        assert tag.io.enqueued_at_ns == 10

    def test_submit_overflow_goes_to_backlog(self):
        queue = DeviceQueue(depth=1)
        queue.submit(make_io(), 0)
        overflow = queue.submit(make_io(), 0)
        assert overflow is None
        assert queue.backlog_size == 1
        assert queue.is_full
        assert queue.stats.stalled_requests == 1

    def test_admit_from_backlog_after_retire(self):
        queue = DeviceQueue(depth=1)
        first = queue.submit(make_io(arrival=0), 0)
        queue.submit(make_io(arrival=5), 5)
        queue.retire(first.io_id)
        admitted = queue.admit_from_backlog(100)
        assert len(admitted) == 1
        assert queue.backlog_size == 0
        assert queue.stats.total_backlog_wait_ns == 95

    def test_tags_in_arrival_order(self):
        queue = DeviceQueue(depth=4)
        tags = [queue.submit(make_io(arrival=i), i) for i in range(3)]
        assert [tag.io_id for tag in queue.tags_in_order()] == [tag.io_id for tag in tags]

    def test_retire_frees_slot(self):
        queue = DeviceQueue(depth=1)
        tag = queue.submit(make_io(), 0)
        queue.retire(tag.io_id)
        assert queue.is_empty
        assert not queue.has_work
        assert queue.stats.completed == 1

    def test_has_work_with_backlog_only(self):
        queue = DeviceQueue(depth=1)
        tag = queue.submit(make_io(), 0)
        queue.submit(make_io(), 0)
        queue.retire(tag.io_id)
        assert queue.has_work

    def test_get_and_len(self):
        queue = DeviceQueue(depth=2)
        tag = queue.submit(make_io(), 0)
        assert queue.get(tag.io_id) is tag
        assert len(queue) == 1

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            DeviceQueue(depth=0)


class TestTag:
    def make_tag(self, num_requests=3):
        io = make_io(size=num_requests * 2048)
        tag = Tag(io=io, enqueued_at_ns=0)
        for page in range(num_requests):
            request = make_request(io.io_id, page=page, plane=page % 2)
            tag.memory_requests.append(request)
            tag.by_chip.setdefault(request.chip_key, []).append(request)
        return tag

    def test_counts(self):
        tag = self.make_tag(3)
        assert tag.total_requests == 3
        assert not tag.fully_composed
        assert not tag.fully_completed

    def test_next_uncomposed_advances(self):
        tag = self.make_tag(2)
        first = tag.next_uncomposed()
        first.composed_at_ns = 10
        second = tag.next_uncomposed()
        assert second is not first
        second.composed_at_ns = 20
        assert tag.next_uncomposed() is None

    def test_uncomposed_requests_filter(self):
        tag = self.make_tag(2)
        tag.memory_requests[0].composed_at_ns = 1
        assert len(tag.uncomposed_requests()) == 1

    def test_fully_flags(self):
        tag = self.make_tag(2)
        tag.composed_count = 2
        tag.completed_count = 2
        assert tag.fully_composed
        assert tag.fully_completed


class TestDmaEngine:
    def test_composition_cost(self):
        dma = DmaEngine(per_request_ns=500)
        assert dma.composition_cost_ns(2048) == 500

    def test_per_byte_cost(self):
        dma = DmaEngine(per_request_ns=0, per_byte_ns_x1000=1000)
        assert dma.composition_cost_ns(2048) == 2048

    def test_begin_sets_busy(self):
        dma = DmaEngine(per_request_ns=100)
        done = dma.begin(50, 2048)
        assert done == 150
        assert dma.is_busy(100)
        assert not dma.is_busy(150)

    def test_begin_while_busy_raises(self):
        dma = DmaEngine(per_request_ns=100)
        dma.begin(0, 2048)
        with pytest.raises(RuntimeError):
            dma.begin(50, 2048)

    def test_stats(self):
        dma = DmaEngine(per_request_ns=100)
        dma.begin(0, 2048)
        assert dma.stats.requests_composed == 1
        assert dma.stats.bytes_moved == 2048
        assert dma.stats.busy_time_ns == 100

    def test_reset(self):
        dma = DmaEngine(per_request_ns=100)
        dma.begin(0, 2048)
        dma.reset()
        assert not dma.is_busy(10)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            DmaEngine(per_request_ns=-1)
