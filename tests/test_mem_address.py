"""Unit + property tests for address ranges and window allocation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    CACHELINE_BYTES,
    AddressError,
    AddressRange,
    AddressSpaceAllocator,
)


class TestAddressRange:
    def test_end_and_last(self):
        r = AddressRange(0x1000, 0x100)
        assert r.end == 0x1100
        assert r.last == 0x10FF

    def test_contains_boundaries(self):
        r = AddressRange(0x1000, 0x100)
        assert r.contains(0x1000)
        assert r.contains(0x10FF)
        assert not r.contains(0x1100)
        assert not r.contains(0xFFF)

    def test_contains_range(self):
        outer = AddressRange(0x1000, 0x1000)
        assert outer.contains_range(AddressRange(0x1000, 0x1000))
        assert outer.contains_range(AddressRange(0x1800, 0x100))
        assert not outer.contains_range(AddressRange(0x1800, 0x1000))

    def test_overlaps(self):
        a = AddressRange(0x0, 0x100)
        assert a.overlaps(AddressRange(0x80, 0x100))
        assert not a.overlaps(AddressRange(0x100, 0x100))

    def test_offset_and_translate(self):
        r = AddressRange(0x4000, 0x1000)
        assert r.offset_of(0x4800) == 0x800
        assert r.translate(0x4800, 0x90000) == 0x90800

    def test_offset_of_outside_raises(self):
        with pytest.raises(AddressError):
            AddressRange(0x4000, 0x1000).offset_of(0x3FFF)

    def test_subrange_escape_raises(self):
        with pytest.raises(AddressError):
            AddressRange(0x0, 0x100).subrange(0x80, 0x100)

    def test_split_even(self):
        parts = AddressRange(0x0, 0x400).split(0x100)
        assert len(parts) == 4
        assert parts[0].start == 0x0
        assert parts[3].start == 0x300

    def test_split_uneven_raises(self):
        with pytest.raises(AddressError):
            AddressRange(0x0, 0x300).split(0x200)

    def test_cachelines_cover_range(self):
        r = AddressRange(130, 300)  # unaligned start and end
        lines = list(r.cachelines())
        assert lines[0] == 128
        assert lines[-1] == (r.last // CACHELINE_BYTES) * CACHELINE_BYTES
        assert all(a % CACHELINE_BYTES == 0 for a in lines)

    def test_invalid_construction(self):
        with pytest.raises(AddressError):
            AddressRange(-1, 10)
        with pytest.raises(AddressError):
            AddressRange(0, 0)

    @given(
        start=st.integers(min_value=0, max_value=2**40),
        size=st.integers(min_value=1, max_value=2**30),
        offset=st.integers(min_value=0, max_value=2**30),
    )
    def test_translate_preserves_offset(self, start, size, offset):
        r = AddressRange(start, size)
        address = start + (offset % size)
        target_base = 0x1_0000_0000
        translated = r.translate(address, target_base)
        assert translated - target_base == address - start

    @given(
        start=st.integers(min_value=0, max_value=2**20),
        size=st.integers(min_value=1, max_value=2**20),
        span_start=st.integers(min_value=0, max_value=2**21),
        span_size=st.integers(min_value=1, max_value=2**20),
    )
    def test_contains_span_agrees_with_contains_range(
        self, start, size, span_start, span_size
    ):
        window = AddressRange(start, size)
        assert window.contains_span(span_start, span_size) == (
            window.contains_range(AddressRange(span_start, span_size))
        )


class TestContainsSpan:
    WINDOW = AddressRange(0x1000, 0x1000)

    def test_exact_fit(self):
        assert self.WINDOW.contains_span(0x1000, 0x1000)

    def test_one_byte_over(self):
        assert not self.WINDOW.contains_span(0x1000, 0x1001)
        assert not self.WINDOW.contains_span(0x1F80, 0x81)

    def test_start_before_window(self):
        assert not self.WINDOW.contains_span(0xFFF, 0x10)

    @pytest.mark.parametrize(
        ("start", "size", "message"),
        [
            (0x1000, 0, "non-positive size: 0"),
            (0x1000, -1, "non-positive size: -1"),
            (-0x80, 0x80, "negative start: -0x80"),
        ],
    )
    def test_malformed_span_raises_like_the_constructor(
        self, start, size, message
    ):
        with pytest.raises(AddressError) as error:
            self.WINDOW.contains_span(start, size)
        assert str(error.value) == message


class TestAccessChecksKeepTheirErrors:
    """Bus, PASID and backing-store checks raise as they always have."""

    def bus(self, mapped=True):
        from repro.opencapi.bus import SystemBus
        from repro.sim import Simulator

        bus = SystemBus(Simulator(), name="node0.bus")
        if mapped:
            bus.attach(AddressRange(0x1000, 0x1000), "dram")
            bus.attach(AddressRange(0x4000, 0x1000), "device")
        return bus

    def test_target_for_routes_a_contained_access(self):
        window, target = self.bus().target_for(0x4F80, 0x80)
        assert (window, target) == (AddressRange(0x4000, 0x1000), "device")

    def test_target_for_unmapped(self):
        from repro.opencapi.bus import BusError

        with pytest.raises(BusError) as error:
            self.bus().target_for(0x3000, 0x80)
        assert str(error.value) == (
            "node0.bus: no target mapped at 0x3000 (+128)"
        )

    def test_target_for_straddling(self):
        from repro.opencapi.bus import BusError

        with pytest.raises(BusError) as error:
            self.bus().target_for(0x1F80, 0x100)
        assert str(error.value) == (
            "node0.bus: access [0x1f80, 0x2080) straddles window "
            "AddressRange(0x1000, size=0x1000)"
        )

    @pytest.mark.parametrize("mapped", [True, False])
    def test_target_for_malformed_access(self, mapped):
        with pytest.raises(AddressError) as error:
            self.bus(mapped).target_for(-0x80, 0x80)
        assert str(error.value) == "negative start: -0x80"
        with pytest.raises(AddressError) as error:
            self.bus(mapped).target_for(0x1000, 0)
        assert str(error.value) == "non-positive size: 0"

    def test_permits_straddling(self):
        from repro.opencapi.pasid import PasidError, PasidRegistry

        registry = PasidRegistry()
        entry = registry.register("stealer")
        registry.add_window(entry.pasid, AddressRange(0x1000, 0x1000))
        assert entry.permits(0x1000, 0x1000)
        assert not entry.permits(0x1F80, 0x100)
        with pytest.raises(PasidError) as error:
            registry.check_access(entry.pasid, 0x1F80, 0x100)
        assert str(error.value) == (
            f"PASID {entry.pasid} (stealer) may not access [0x1f80, 0x2080)"
        )

    @pytest.mark.parametrize("windows", [1, 0])
    def test_permits_malformed_span(self, windows):
        from repro.opencapi.pasid import PasidEntry

        window = AddressRange(0x1000, 0x1000)
        entry = PasidEntry(pasid=1, owner="p", windows=[window][:windows])
        with pytest.raises(AddressError) as error:
            entry.permits(-1, 0x80)
        assert str(error.value) == "negative start: -0x1"

    def test_backing_read_outside_window(self):
        from repro.mem.backing import BackingStore

        store = BackingStore(AddressRange(0x1000, 0x1000), name="node1.mem")
        for address, size in ((0x2000, 0x80), (0x1F80, 0x100)):
            with pytest.raises(AddressError) as error:
                store.read(address, size)
            assert str(error.value) == (
                f"node1.mem: access [{address:#x}, {address + size:#x}) "
                "outside window [0x1000, 0x2000)"
            )

    def test_backing_read_negative_address(self):
        from repro.mem.backing import BackingStore

        store = BackingStore(AddressRange(0x1000, 0x1000), name="node1.mem")
        with pytest.raises(AddressError) as error:
            store.read(-0x80, 0x80)
        assert str(error.value) == "negative start: -0x80"
        assert store.read(0x9000, 0) == b""



class TestAllocator:
    def window(self, size=0x10000):
        return AddressSpaceAllocator(AddressRange(0x100000, size))

    def test_allocations_do_not_overlap(self):
        alloc = self.window()
        a = alloc.allocate(0x1000)
        b = alloc.allocate(0x1000)
        assert not a.overlaps(b)

    def test_alignment_respected(self):
        alloc = AddressSpaceAllocator(AddressRange(0x100, 0x100000))
        r = alloc.allocate(0x1000, alignment=0x1000)
        assert r.start % 0x1000 == 0

    def test_exhaustion_raises(self):
        alloc = self.window(size=0x1000)
        alloc.allocate(0x1000)
        with pytest.raises(AddressError):
            alloc.allocate(0x80)

    def test_free_then_reallocate(self):
        alloc = self.window(size=0x1000)
        r = alloc.allocate(0x1000)
        alloc.free(r)
        r2 = alloc.allocate(0x1000)
        assert r2.start == r.start

    def test_free_coalesces_neighbours(self):
        alloc = self.window(size=0x3000)
        a = alloc.allocate(0x1000)
        b = alloc.allocate(0x1000)
        c = alloc.allocate(0x1000)
        alloc.free(a)
        alloc.free(c)
        alloc.free(b)  # middle free must merge the window back together
        big = alloc.allocate(0x3000)
        assert big.size == 0x3000

    def test_double_free_raises(self):
        alloc = self.window()
        r = alloc.allocate(0x1000)
        alloc.free(r)
        with pytest.raises(AddressError):
            alloc.free(r)

    def test_allocate_at_explicit_range(self):
        alloc = self.window()
        r = alloc.allocate_at(0x104000, 0x1000)
        assert r.start == 0x104000
        with pytest.raises(AddressError):
            alloc.allocate_at(0x104800, 0x100)  # overlaps previous

    def test_accounting(self):
        alloc = self.window(size=0x4000)
        total = alloc.free_bytes
        r = alloc.allocate(0x1000)
        assert alloc.allocated_bytes == 0x1000
        assert alloc.free_bytes == total - 0x1000
        alloc.free(r)
        assert alloc.free_bytes == total

    def test_bad_alignment_rejected(self):
        alloc = self.window()
        with pytest.raises(AddressError):
            alloc.allocate(0x100, alignment=3)

    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=0x800), min_size=1, max_size=30
        ),
        frees=st.lists(st.integers(min_value=0, max_value=29), max_size=15),
    )
    def test_random_alloc_free_never_overlaps_and_conserves_bytes(
        self, sizes, frees
    ):
        window = AddressRange(0x0, 0x100000)
        alloc = AddressSpaceAllocator(window)
        live = []
        for size in sizes:
            live.append(alloc.allocate(size, alignment=128))
        for index in frees:
            if live and index < len(live):
                alloc.free(live.pop(index % len(live)))
        # Invariant 1: no two live allocations overlap.
        for i, a in enumerate(live):
            for b in live[i + 1 :]:
                assert not a.overlaps(b)
        # Invariant 2: allocator accounting matches live set.
        assert alloc.allocated_bytes == sum(r.size for r in live)
        # Invariant 3: everything stays inside the window.
        for r in live:
            assert window.contains_range(r)
