"""Tests for the §VII HBM caching layer at the compute endpoint."""

import pytest

from repro.core import HbmCache, HbmCacheConfig
from repro.mem import CACHELINE_BYTES, MIB
from repro.testbed import Testbed


class TestHbmCacheUnit:
    def make(self, size=16 * 1024, ways=2):
        return HbmCache(HbmCacheConfig(size_bytes=size, ways=ways))

    def test_miss_then_fill_then_hit(self):
        cache = self.make()
        assert cache.lookup(0x0, 128) is None
        cache.fill(0x0, b"\x11" * 128)
        assert cache.lookup(0x0, 128) == b"\x11" * 128
        assert cache.read_hits == 1 and cache.read_misses == 1

    def test_write_through_allocates(self):
        cache = self.make()
        cache.write_through(0x80, b"\x22" * 128)
        assert cache.lookup(0x80, 128) == b"\x22" * 128

    def test_partial_line_write_invalidates(self):
        cache = self.make()
        cache.fill(0x0, b"\x11" * 128)
        cache.write_through(0x10, b"short")
        assert cache.lookup(0x0, 128) is None

    def test_unaligned_reads_bypass(self):
        cache = self.make()
        cache.fill(0x0, b"\x11" * 128)
        assert cache.lookup(0x10, 128) is None  # unaligned
        assert cache.lookup(0x0, 64) is None    # partial

    def test_eviction_drops_data(self):
        # 2-way cache of 4 lines total -> 2 sets; lines 0, 2, 4 share set 0.
        cache = self.make(size=4 * CACHELINE_BYTES, ways=2)
        for line in (0, 2, 4):
            cache.fill(line * CACHELINE_BYTES, bytes([line]) * 128)
        assert cache.resident_lines == 2  # one eviction happened
        assert cache.lookup(0 * CACHELINE_BYTES, 128) is None  # LRU victim

    def test_invalidate_range(self):
        cache = self.make()
        for line in range(8):
            cache.fill(line * CACHELINE_BYTES, bytes([line]) * 128)
        dropped = cache.invalidate_range(0, 4 * CACHELINE_BYTES)
        assert dropped == 4
        assert cache.lookup(0, 128) is None
        assert cache.lookup(5 * CACHELINE_BYTES, 128) is not None

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            HbmCacheConfig(size_bytes=100, ways=3)


class TestHbmCacheEndToEnd:
    @pytest.fixture()
    def cached_testbed(self):
        testbed = Testbed()
        cache = testbed.node0.device.enable_hbm_cache(
            HbmCacheConfig(size_bytes=1 * MIB, ways=8)
        )
        attachment = testbed.attach("node0", 2 * MIB, memory_host="node1")
        window = testbed.remote_window_range(attachment)
        return testbed, cache, attachment, window

    def test_second_read_served_from_hbm(self, cached_testbed):
        testbed, cache, _attachment, window = cached_testbed
        testbed.node0.run_store(window.start, b"\x42" * 128)
        first = testbed.node0.run_load(window.start)
        second = testbed.node0.run_load(window.start)
        assert first == second == b"\x42" * 128
        # Store write-through allocated; both reads hit.
        assert cache.read_hits >= 1

    def test_hbm_hit_is_much_faster(self, cached_testbed):
        testbed, cache, _attachment, window = cached_testbed
        address = window.start + 4 * CACHELINE_BYTES
        testbed.node0.run_load(address)          # miss -> remote -> fill
        rtt = testbed.node0.device.compute.rtt
        miss_latency = rtt.percentile(100)
        before = rtt.count
        testbed.node0.run_load(address)          # hit in HBM
        hit_latency = rtt.percentile(0) if rtt.count > before else None
        assert hit_latency is not None
        assert hit_latency < miss_latency / 5    # ~30ns+bus vs ~1µs

    def test_write_keeps_donor_authoritative(self, cached_testbed):
        testbed, _cache, attachment, window = cached_testbed
        testbed.node0.run_store(window.start, b"\x55" * 128)
        donor_view = testbed.node1.dram.read_now(
            attachment.grant.effective_base, 128
        )
        assert donor_view == b"\x55" * 128  # write-through reached donor

    def test_read_after_write_returns_new_data(self, cached_testbed):
        testbed, _cache, _attachment, window = cached_testbed
        testbed.node0.run_store(window.start, b"\x01" * 128)
        testbed.node0.run_load(window.start)
        testbed.node0.run_store(window.start, b"\x02" * 128)
        assert testbed.node0.run_load(window.start) == b"\x02" * 128

    def test_detach_invalidates_cached_lines(self, cached_testbed):
        testbed, cache, attachment, window = cached_testbed
        testbed.node0.run_store(window.start, b"\x99" * 128)
        testbed.node0.run_load(window.start)
        assert cache.resident_lines > 0
        testbed.detach(attachment)
        assert cache.resident_lines == 0

    def test_reattach_after_detach_sees_fresh_memory(self, cached_testbed):
        testbed, _cache, attachment, window = cached_testbed
        testbed.node0.run_store(window.start, b"\x77" * 128)
        testbed.node0.run_load(window.start)
        testbed.detach(attachment)
        second = testbed.attach("node0", 2 * MIB, memory_host="node1")
        window2 = testbed.remote_window_range(second)
        # Fresh attachment reuses device sections; stale HBM data must
        # not leak across — newly donated memory reads as zeros.
        assert testbed.node0.run_load(window2.start) == bytes(128)
