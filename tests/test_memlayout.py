"""Tests for the simulated address space and region tagging."""

import pytest

from repro.common.errors import AllocationError
from repro.memlayout.allocator import AddressSpace
from repro.memlayout.regions import (
    REGION_BASE,
    REGION_SHIFT,
    Region,
    region_of,
)


class TestRegions:
    def test_region_bases_distinct(self):
        bases = set(REGION_BASE.values())
        assert len(bases) == len(Region)

    def test_region_of_base(self):
        for region in Region:
            assert region_of(REGION_BASE[region]) is region

    def test_region_of_interior_address(self):
        addr = REGION_BASE[Region.PROPERTY] + 123456
        assert region_of(addr) is Region.PROPERTY

    def test_region_encoding_is_shift(self):
        addr = REGION_BASE[Region.STRUCTURE] + 99
        assert addr >> REGION_SHIFT == Region.STRUCTURE.value


class TestAddressSpace:
    def test_allocations_cache_line_aligned(self):
        space = AddressSpace()
        a = space.malloc("a", Region.META, 3, 8)
        b = space.malloc("b", Region.META, 3, 8)
        assert a.base % 64 == 0
        assert b.base % 64 == 0

    def test_allocations_do_not_overlap(self):
        space = AddressSpace()
        a = space.malloc("a", Region.META, 100, 8)
        b = space.malloc("b", Region.META, 100, 8)
        assert b.base >= a.end

    def test_regions_are_disjoint(self):
        space = AddressSpace()
        meta = space.malloc("m", Region.META, 10, 8)
        prop = space.pmr_malloc("p", 10, 8)
        assert region_of(meta.base) is Region.META
        assert region_of(prop.base) is Region.PROPERTY

    def test_pmr_flag(self):
        space = AddressSpace()
        normal = space.malloc("n", Region.PROPERTY, 4, 8)
        pmr = space.pmr_malloc("p", 4, 8)
        assert not normal.in_pmr
        assert pmr.in_pmr

    def test_pmr_bytes_accounting(self):
        space = AddressSpace()
        space.pmr_malloc("p1", 8, 8)
        space.pmr_malloc("p2", 8, 8)
        space.malloc("m", Region.META, 8, 8)
        assert space.pmr_bytes() == 128
        assert space.total_bytes() == 192

    def test_region_bytes(self):
        space = AddressSpace()
        space.malloc("s", Region.STRUCTURE, 16, 8)
        assert space.region_bytes(Region.STRUCTURE) == 128
        assert space.region_bytes(Region.META) == 0

    def test_addr_of(self):
        space = AddressSpace()
        a = space.malloc("a", Region.META, 10, 8)
        assert a.addr_of(0) == a.base
        assert a.addr_of(3) == a.base + 24

    def test_addr_of_out_of_range(self):
        space = AddressSpace()
        a = space.malloc("a", Region.META, 10, 8)
        with pytest.raises(AllocationError):
            a.addr_of(10)
        with pytest.raises(AllocationError):
            a.addr_of(-1)

    def test_addrs_of(self):
        space = AddressSpace()
        a = space.malloc("a", Region.META, 10, 8)
        indices = [3, 0, 9, 3]
        assert a.addrs_of(indices).tolist() == [a.addr_of(i) for i in indices]
        assert a.addrs_of([]).size == 0

    def test_addrs_of_out_of_range(self):
        space = AddressSpace()
        a = space.malloc("a", Region.META, 10, 8)
        with pytest.raises(AllocationError, match="index 10 "):
            a.addrs_of([2, 10])
        with pytest.raises(AllocationError, match="index -1 "):
            a.addrs_of([-1, 10])

    def test_contains(self):
        space = AddressSpace()
        a = space.malloc("a", Region.META, 10, 8)
        assert a.contains(a.base)
        assert a.contains(a.end - 1)
        assert not a.contains(a.end)

    def test_num_elements(self):
        space = AddressSpace()
        a = space.malloc("a", Region.META, 7, 64)
        assert a.num_elements == 7

    def test_find_by_label(self):
        space = AddressSpace()
        space.malloc("first", Region.META, 1, 8)
        target = space.malloc("target", Region.META, 1, 8)
        assert space.find("target") is target

    def test_find_missing(self):
        with pytest.raises(AllocationError):
            AddressSpace().find("nope")

    def test_negative_count_rejected(self):
        with pytest.raises(AllocationError):
            AddressSpace().malloc("x", Region.META, -1, 8)

    def test_zero_element_size_rejected(self):
        with pytest.raises(AllocationError):
            AddressSpace().malloc("x", Region.META, 1, 0)

    def test_region_exhaustion(self):
        space = AddressSpace()
        with pytest.raises(AllocationError):
            space.malloc("huge", Region.META, 1 << REGION_SHIFT, 2)

    def test_bad_alignment_rejected(self):
        with pytest.raises(AllocationError):
            AddressSpace(alignment=48)

    def test_allocations_listing(self):
        space = AddressSpace()
        space.malloc("a", Region.META, 1, 8)
        space.pmr_malloc("b", 1, 8)
        labels = [a.label for a in space.allocations]
        assert labels == ["a", "b"]
