"""End-to-end tests: ThymesisFlow over the packet-switched fabric."""

import pytest

from repro.mem import CACHELINE_BYTES, MIB
from repro.net import PacketSwitchError
from repro.testbed import PacketRackTestbed


class TestPacketRack:
    @pytest.fixture(scope="class")
    def rack(self):
        return PacketRackTestbed(nodes=4)

    def test_functional_roundtrip(self, rack):
        attachment = rack.attach("node0", 2 * MIB, memory_host="node1")
        window = rack.remote_window_range(attachment)
        payload = bytes(range(128))
        rack.node("node0").run_store(window.start, payload)
        assert rack.node("node0").run_load(window.start) == payload
        assert rack.switch.frames_forwarded > 0
        rack.detach(attachment)

    def test_no_setup_blackout(self, rack):
        """Unlike the circuit fabric, the first frame flows immediately."""
        attachment = rack.attach("node0", 1 * MIB, memory_host="node2")
        window = rack.remote_window_range(attachment)
        start = rack.sim.now
        rack.node("node0").run_store(window.start, b"\x11" * 128)
        # No 20 µs reconfiguration wait anywhere in the path.
        assert rack.sim.now - start < 10e-6
        rack.detach(attachment)

    def test_rtt_pays_store_and_forward(self, rack):
        attachment = rack.attach("node0", 1 * MIB, memory_host="node3")
        window = rack.remote_window_range(attachment)
        for _ in range(8):
            rack.node("node0").run_load(window.start)
        rtt = rack.node("node0").device.compute.rtt.mean
        # Circuit rack: ~1.46 µs; packet adds higher per-hop forwarding.
        assert 1.3e-6 <= rtt <= 2.5e-6
        rack.detach(attachment)

    def test_session_repointing_with_bringup(self, rack):
        a = rack.attach("node0", 1 * MIB, memory_host="node1")
        wa = rack.remote_window_range(a)
        rack.node("node0").run_store(wa.start, b"\x22" * 128)
        rack.detach(a)
        b = rack.attach("node0", 1 * MIB, memory_host="node2")
        wb = rack.remote_window_range(b)
        rack.node("node0").run_store(wb.start, b"\x33" * 128)
        assert rack.node("node0").run_load(wb.start) == b"\x33" * 128
        rack.detach(b)

    def test_concurrent_pairs(self, rack):
        a = rack.attach("node0", 1 * MIB, memory_host="node1")
        b = rack.attach("node2", 1 * MIB, memory_host="node3")
        wa = rack.remote_window_range(a)
        wb = rack.remote_window_range(b)
        rack.node("node0").run_store(wa.start, b"\xaa" * 128)
        rack.node("node2").run_store(wb.start, b"\xbb" * 128)
        assert rack.node("node0").run_load(wa.start) == b"\xaa" * 128
        assert rack.node("node2").run_load(wb.start) == b"\xbb" * 128
        rack.detach(a)
        rack.detach(b)

    def test_sessions_released_on_detach(self, rack):
        attachment = rack.attach("node0", 1 * MIB, memory_host="node1")
        assert rack.driver.circuits()
        rack.detach(attachment)
        assert rack.driver.circuits() == []
        for uplink in rack.uplinks.values():
            assert uplink.destination_port is None

    def test_session_conflict_detected(self, rack):
        a = rack.attach("node0", 1 * MIB, memory_host="node1")
        b = rack.attach("node0", 1 * MIB, memory_host="node2")
        with pytest.raises(PacketSwitchError) as excinfo:
            rack.attach("node0", 1 * MIB, memory_host="node3")
        assert excinfo.value.code == "switch/packet-session"
        rack.detach(a)
        rack.detach(b)
