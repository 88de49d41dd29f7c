"""Unit tests for synthetic memory-access pattern generators."""

import random

import pytest

from repro.trace.patterns import (
    CACHE_LINE,
    AddressSpace,
    AddressSpaceAllocator,
    random_accesses,
    reuse_accesses,
    strided_accesses,
)
from repro.trace.records import EventRun


class TestAddressSpace:
    def test_offset_wraps_within_region(self):
        region = AddressSpace(base=1000, size=256)
        assert region.offset(0) == 1000
        assert region.offset(255) == 1255
        assert region.offset(256) == 1000

    def test_slice_inherits_shared_flag(self):
        region = AddressSpace(base=0, size=4096, shared=True)
        sub = region.slice(128, 512)
        assert sub.shared is True
        assert sub.base == 128
        assert region.slice(0, 64, shared=False).shared is False

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AddressSpace(base=-1, size=10)
        with pytest.raises(ValueError):
            AddressSpace(base=0, size=0)
        with pytest.raises(ValueError):
            AddressSpace(base=0, size=64).slice(0, 0)


class TestAllocator:
    def test_allocations_do_not_overlap(self):
        allocator = AddressSpaceAllocator()
        first = allocator.allocate(1000)
        second = allocator.allocate(1000)
        assert first.base + first.size <= second.base

    def test_alignment(self):
        allocator = AddressSpaceAllocator()
        region = allocator.allocate(100)
        assert region.base % CACHE_LINE == 0
        assert region.size % CACHE_LINE == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            AddressSpaceAllocator().allocate(0)


class TestPatterns:
    def setup_method(self):
        self.region = AddressSpace(base=0, size=64 * 1024)
        self.rng = random.Random(7)

    def test_strided_addresses_advance_by_stride(self):
        events = strided_accesses(
            self.region, count=10, total_accesses=100, stride=128, rng=self.rng
        )
        assert events.address == [i * 128 for i in range(10)]
        assert all(weight == 10 for weight in events.weight)

    def test_strided_empty_when_count_zero(self):
        assert strided_accesses(self.region, count=0, total_accesses=10) == EventRun()
        assert len(strided_accesses(self.region, count=0, total_accesses=10)) == 0

    def test_random_accesses_stay_in_region(self):
        events = random_accesses(self.region, count=50, total_accesses=500, rng=self.rng)
        assert len(events) == 50
        for address in events.address:
            assert self.region.base <= address < self.region.base + self.region.size
            assert address % CACHE_LINE == 0

    def test_reuse_accesses_touch_few_lines(self):
        events = reuse_accesses(
            self.region, count=100, total_accesses=1000, hot_lines=4, rng=self.rng
        )
        lines = {address // CACHE_LINE for address in events.address}
        assert len(lines) <= 4

    def test_write_fraction_produces_writes(self):
        events = random_accesses(
            self.region, count=200, total_accesses=200, write_fraction=1.0, rng=self.rng
        )
        assert all(events.is_write)
        events = random_accesses(
            self.region, count=200, total_accesses=200, write_fraction=0.0, rng=self.rng
        )
        assert not any(events.is_write)

    def test_shared_region_marks_events_shared(self):
        shared = AddressSpace(base=0, size=4096, shared=True)
        events = strided_accesses(shared, count=5, total_accesses=5, rng=self.rng)
        assert all(events.shared)

    def test_weight_at_least_one(self):
        events = random_accesses(self.region, count=10, total_accesses=3, rng=self.rng)
        assert all(weight >= 1 for weight in events.weight)
