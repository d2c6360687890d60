"""Differential tests: batched bulk transfers vs the per-line formulation.

The bulk datapath carries runs of contiguous cachelines as single burst
transactions purely as a *simulator* optimization — the modelled
hardware behaviour must be indistinguishable from issuing the same
lines as concurrent per-line transactions. These tests run identical
scenarios in both modes and require bit-identical stored bytes,
bit-identical final simulated time, and identical protocol counters at
every LLC, DRAM and bus in the testbed — including under injected
frame loss and corruption, where the replay machinery must fire
identically in both formulations. The zero-copy plumbing the burst
path rides on (split-burst views, backing-store read views) is checked
directly at the end.
"""

import pytest

from repro.mem import MIB
from repro.net.faults import FaultInjector
from repro.osmodel import NumaBalancer, PagePolicy
from repro.testbed import RemoteBuffer, Testbed

LLC_COUNTERS = [
    "frames_built",
    "control_frames",
    "replays_requested",
    "replays_served",
    "frames_corrupted",
    "frames_out_of_order",
    "frames_duplicate",
    "nops_padded",
    "txns_sent",
    "txns_received",
    "timeout_recoveries",
]


def _snapshot(testbed):
    """Every externally-visible protocol counter in the testbed."""
    state = {"sim.now": testbed.sim.now}
    for node in (testbed.node0, testbed.node1):
        host = node.hostname
        for index, llc in enumerate(node.device.llcs):
            for counter in LLC_COUNTERS:
                state[f"{host}.llc{index}.{counter}"] = getattr(llc, counter)
            state[f"{host}.llc{index}.credits"] = llc.credits_available
        state[f"{host}.dram.reads"] = node.dram.reads
        state[f"{host}.dram.writes"] = node.dram.writes
        state[f"{host}.bus.loads"] = node.bus.loads
        state[f"{host}.bus.stores"] = node.bus.stores
        rtt = node.device.compute.rtt
        state[f"{host}.rtt.count"] = rtt.count
        state[f"{host}.rtt.mean"] = rtt.mean
        state[f"{host}.rtt.max"] = rtt.stats.maximum
        state[f"{host}.forwarded"] = node.device.routing.forwarded
        state[f"{host}.responses"] = node.device.routing.responses_returned
        state[f"{host}.per_channel_tx"] = tuple(
            node.device.routing.per_channel_tx
        )
    return state


def _assert_equivalent(batched, unbatched):
    """Compare snapshots key by key for a readable failure message."""
    assert batched.keys() == unbatched.keys()
    different = {
        key: (batched[key], unbatched[key])
        for key in batched
        if batched[key] != unbatched[key]
    }
    assert different == {}


def _stream_scenario(batched, faults=None, bonded=False):
    """STREAM-style triad chunk: bulk write then bulk read-back."""
    injectors = {0: faults} if faults is not None else None
    testbed = Testbed(fault_injectors=injectors)
    attachment = testbed.attach(
        "node0", 4 * MIB, memory_host="node1", bonded=bonded
    )
    buffer = RemoteBuffer.allocate(
        testbed.node0,
        2 * testbed.node0.spec.page_bytes,
        policy=PagePolicy.BIND,
        numa_nodes=[attachment.plan.numa_node_id],
        batched=batched,
    )
    blob = bytes(range(256)) * (len(buffer) // 256)
    buffer.write(0, blob)
    data = buffer.read(0, len(blob))
    return testbed, data, blob


class TestStreamEquivalence:
    def test_bulk_write_readback_identical(self):
        tb_b, data_b, blob = _stream_scenario(batched=True)
        tb_u, data_u, _ = _stream_scenario(batched=False)
        assert data_b == blob
        assert data_u == blob
        _assert_equivalent(_snapshot(tb_b), _snapshot(tb_u))

    def test_bonded_route_sprays_identically(self):
        tb_b, data_b, blob = _stream_scenario(batched=True, bonded=True)
        tb_u, data_u, _ = _stream_scenario(batched=False, bonded=True)
        assert data_b == blob == data_u
        snap_b, snap_u = _snapshot(tb_b), _snapshot(tb_u)
        _assert_equivalent(snap_b, snap_u)
        # The bonded flow really used both channels.
        assert snap_b["node0.per_channel_tx"][1] > 0

    def test_unaligned_ranges_identical(self):
        """Head/tail fragments around the batched windows line up too."""

        def run(batched):
            testbed = Testbed()
            attachment = testbed.attach("node0", 4 * MIB,
                                        memory_host="node1")
            buffer = RemoteBuffer.allocate(
                testbed.node0,
                2 * testbed.node0.spec.page_bytes,
                policy=PagePolicy.BIND,
                numa_nodes=[attachment.plan.numa_node_id],
                batched=batched,
            )
            blob = bytes([0xA5]) * 5000
            buffer.write(37, blob)
            data = buffer.read(37, len(blob))
            return testbed, data, blob

        tb_b, data_b, blob = run(True)
        tb_u, data_u, _ = run(False)
        assert data_b == blob == data_u
        _assert_equivalent(_snapshot(tb_b), _snapshot(tb_u))


class TestMigrationEquivalence:
    def _migrate(self, bulk):
        testbed = Testbed()
        attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
        testbed.node0.bulk_transfers = bulk
        remote_node = attachment.plan.numa_node_id
        buffer = RemoteBuffer.allocate(
            testbed.node0,
            2 * testbed.node0.spec.page_bytes,
            policy=PagePolicy.BIND,
            numa_nodes=[remote_node],
            batched=bulk,
        )
        blob = bytes(range(256)) * (testbed.node0.spec.page_bytes // 256)
        buffer.write(0, blob)
        balancer = NumaBalancer(testbed.node0.kernel, sample_period=1,
                                min_samples=2)
        for _ in range(6):
            balancer.record_access(buffer.mapping, 0, cpu_node=0)
        assert balancer.balance(buffer.mapping) == 1
        assert buffer.mapping.pages[0].node_id == 0
        data = buffer.read(0, len(blob))
        return testbed, data, blob

    def test_page_migration_identical(self):
        tb_b, data_b, blob = self._migrate(bulk=True)
        tb_u, data_u, _ = self._migrate(bulk=False)
        assert data_b == blob == data_u
        _assert_equivalent(_snapshot(tb_b), _snapshot(tb_u))


class TestFaultEquivalence:
    """Injected frame loss/corruption must trigger identical replays."""

    def _faulted(self, batched, drops=0, corruptions=0):
        faults = FaultInjector()
        # Arm the faults before any traffic: the Nth data frame crossing
        # channel 0 node0->node1 is damaged in both formulations.
        faults.force_drop_next(drops)
        faults.force_corrupt_next(corruptions)
        return _stream_scenario(batched=batched, faults=faults)

    @pytest.mark.parametrize("drops,corruptions", [(1, 0), (0, 1), (2, 1)])
    def test_replay_identical(self, drops, corruptions):
        tb_b, data_b, blob = self._faulted(True, drops, corruptions)
        tb_u, data_u, _ = self._faulted(False, drops, corruptions)
        assert data_b == blob == data_u
        snap_b, snap_u = _snapshot(tb_b), _snapshot(tb_u)
        _assert_equivalent(snap_b, snap_u)
        # The fault actually exercised the replay machinery.
        recovered = (
            snap_b["node1.llc0.replays_requested"]
            + snap_b["node1.llc0.frames_corrupted"]
            + snap_b["node1.llc0.timeout_recoveries"]
            + snap_b["node0.llc0.timeout_recoveries"]
        )
        assert recovered > 0


class TestLazyLatencyRecorder:
    """The lazily-sorted LatencyRecorder must answer exactly like a
    sorted-reference implementation, whatever order queries interleave
    with appends."""

    def test_interleaved_queries_match_reference(self):
        from repro.sim.stats import LatencyRecorder, percentile

        recorder = LatencyRecorder("lazy")
        reference = []
        values = [5.0, 1.0, 3.0, 9.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.5]
        for index, value in enumerate(values):
            recorder.add(value)
            reference.append(value)
            if index % 3 == 2:  # query mid-stream, then keep appending
                ordered = sorted(reference)
                assert recorder.percentile(50) == percentile(ordered, 50)
                assert recorder.fraction_below(4.0) == (
                    sum(1 for v in ordered if v < 4.0) / len(ordered)
                )
        ordered = sorted(reference)
        assert recorder.percentile(90) == percentile(ordered, 90)
        assert recorder.cdf() == [
            (v, (i + 1) / len(ordered)) for i, v in enumerate(ordered)
        ]
        assert recorder.count == len(values)
        assert recorder.mean == pytest.approx(sum(values) / len(values))


class TestZeroCopyPlumbing:
    def test_split_burst_aliases_parent_payload(self):
        from repro.opencapi.transactions import MemTransaction, split_burst

        blob = bytes(range(256)) * 2  # 4 cachelines
        txn = MemTransaction.write_burst(0x1000, blob)
        view = split_burst(txn, 1, 2)
        assert isinstance(view.data, memoryview)
        assert view.data.obj is blob  # aliases, not a copy
        assert bytes(view.data) == blob[128:384]
        assert view.txn_id == txn.txn_id + 1
        assert view.address == 0x1000 + 128
        assert view.burst == 2
        assert view.burst_offset == 1

    def test_split_burst_of_split_stays_zero_copy(self):
        from repro.opencapi.transactions import MemTransaction, split_burst

        blob = bytes(range(256)) * 4  # 8 lines
        txn = MemTransaction.write_burst(0, blob)
        inner = split_burst(split_burst(txn, 2, 4), 1, 2)
        assert inner.data.obj is blob
        assert bytes(inner.data) == blob[3 * 128 : 5 * 128]
        assert inner.base_txn_id == txn.txn_id

    def test_split_burst_bounds_still_enforced(self):
        from repro.opencapi.transactions import MemTransaction, split_burst

        txn = MemTransaction.read_burst(0, 4)
        with pytest.raises(ValueError):
            split_burst(txn, 3, 2)

    def test_txn_id_reservation_still_consecutive(self):
        from repro.opencapi.transactions import MemTransaction

        single = MemTransaction.read(0)
        burst = MemTransaction.read_burst(0, 5)
        after = MemTransaction.read(0)
        assert burst.txn_id == single.txn_id + 1
        assert after.txn_id == burst.txn_id + 5

    def test_addressed_wire_bytes_buffer_fallback(self):
        from repro.net.packet import Addressed

        assert Addressed(0, b"x" * 200).wire_bytes == 200
        assert Addressed(0, memoryview(b"y" * 64)[:32]).wire_bytes == 32
        assert Addressed(0, object()).wire_bytes == 64

        class Sized:
            wire_bytes = 999

        assert Addressed(0, Sized()).wire_bytes == 999

    def test_backing_read_view_is_zero_copy(self):
        from repro.mem.address import AddressRange
        from repro.mem.backing import BackingStore

        store = BackingStore(AddressRange(0, 1 << 20))
        store.write(0x100, b"\xab" * 64)
        view = store.read_view(0x100, 64)
        assert isinstance(view, memoryview)
        assert view.readonly
        assert bytes(view) == b"\xab" * 64
        # The view aliases the live chunk: a later write shows through.
        store.write(0x100, b"\xcd" * 64)
        assert bytes(view) == b"\xcd" * 64

    def test_backing_read_view_falls_back_across_chunks(self):
        from repro.mem.address import AddressRange
        from repro.mem.backing import BackingStore

        store = BackingStore(AddressRange(0, 1 << 20), chunk_bytes=4096)
        store.write(4096 - 32, b"\x11" * 64)
        view = store.read_view(4096 - 32, 64)
        assert bytes(view) == b"\x11" * 64

    def test_backing_straddling_read_matches_writes(self):
        from repro.mem.address import AddressRange
        from repro.mem.backing import BackingStore

        store = BackingStore(AddressRange(0, 1 << 20), chunk_bytes=4096)
        blob = bytes(range(256)) * 48  # 12 KiB: spans 4 chunks
        store.write(1000, blob)
        assert store.read(1000, len(blob)) == blob
        # Untouched tail still reads as zeros.
        assert store.read(1000 + len(blob), 64) == bytes(64)

    def test_backing_copy_range_across_stores(self):
        from repro.mem.address import AddressRange
        from repro.mem.backing import BackingStore

        src = BackingStore(AddressRange(0, 1 << 20))
        dst = BackingStore(AddressRange(0, 1 << 20))
        src.write(0x40, b"\x5a" * 256)
        src.copy_range(0x40, 0x80, 256, other=dst)
        assert dst.read(0x80, 256) == b"\x5a" * 256
