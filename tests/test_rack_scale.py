"""Rack-scale tests: N nodes behind a control-plane-programmed circuit
switch (§VII projection)."""

import pytest

from repro.control import (
    GraphError,
    NoPathError,
    SwitchDriver,
    extract_switch_hops,
)
from repro.mem import CACHELINE_BYTES, MIB
from repro.net import CircuitSwitch, PacketSwitchError, SwitchError
from repro.sim import Simulator
from repro.testbed import RackTestbed
from repro.testbed.packet_rack import AddressedUplink, PacketFabricDriver


class _DriverCases:
    """SwitchDriver cases each fabric must pass.

    ``make()`` returns the driver and a probe mapping an ingress port
    to its egress port (None when unconnected).
    """

    def test_connect_is_bidirectional(self):
        driver, circuit_for = self.make()
        driver.connect(0, 5)
        assert circuit_for(0) == 5
        assert circuit_for(5) == 0

    def test_refcounted_sharing(self):
        driver, circuit_for = self.make()
        driver.connect(0, 5)
        driver.connect(5, 0)  # same circuit, canonicalized
        driver.disconnect(0, 5)
        assert circuit_for(0) == 5  # still referenced
        driver.disconnect(5, 0)
        assert circuit_for(0) is None

    def test_port_conflict_rejected(self):
        driver, circuit_for = self.make()
        driver.connect(0, 5)
        for port_a, port_b in ((0, 3), (2, 5)):
            with pytest.raises(self.conflict_error) as excinfo:
                driver.connect(port_a, port_b)
            assert excinfo.value.code == self.conflict_code
        assert circuit_for(3) is None and circuit_for(2) is None

    def test_disconnect_unknown_circuit_rejected(self):
        driver, _circuit_for = self.make()
        with pytest.raises(GraphError):
            driver.disconnect(0, 1)


class TestSwitchDriver(_DriverCases):
    """Driver cases on the optical circuit switch."""

    conflict_error, conflict_code = SwitchError, "switch/circuit"

    def make(self):
        switch = CircuitSwitch(Simulator(), ports=8, reconfiguration_s=0.0)
        return SwitchDriver("sw0", switch), switch.circuit_for

    def test_extract_switch_hops(self):
        path = ("node0/cep", "node0/x0", "sw0/p0", "sw0/p3",
                "node1/x1", "node1/mep")
        assert extract_switch_hops(path, "sw0") == [(0, 3)]
        assert extract_switch_hops(path, "other") == []


class TestPacketSessionDriver(_DriverCases):
    """The same driver cases on the packet fabric's session table."""

    conflict_error, conflict_code = PacketSwitchError, "switch/packet-session"

    def make(self):
        uplinks = {port: AddressedUplink(link=None) for port in range(8)}
        driver = SwitchDriver("psw0", PacketFabricDriver(uplinks))
        return driver, lambda port: uplinks[port].destination_port


class TestRackTestbed:
    @pytest.fixture(scope="class")
    def rack(self):
        return RackTestbed(nodes=4)

    def test_attach_programs_circuits(self, rack):
        attachment = rack.attach("node0", 2 * MIB, memory_host="node2")
        assert rack.driver.circuits()  # at least one circuit live
        rack.detach(attachment)
        assert rack.driver.circuits() == []

    def test_functional_roundtrip_through_switch(self, rack):
        attachment = rack.attach("node0", 2 * MIB, memory_host="node1")
        window = rack.remote_window_range(attachment)
        payload = bytes(range(128))
        rack.node("node0").run_store(window.start, payload)
        assert rack.node("node0").run_load(window.start) == payload
        assert rack.switch.frames_forwarded > 0
        rack.detach(attachment)

    def test_rtt_includes_switch_crossings(self, rack):
        attachment = rack.attach("node0", 1 * MIB, memory_host="node3")
        window = rack.remote_window_range(attachment)
        for _ in range(8):
            rack.node("node0").run_load(window.start)
        rtt = rack.node("node0").device.compute.rtt.mean
        # Back-to-back prototype ≈ 1.03 µs; two switch crossings at
        # 100 ns each push the rack RTT above that.
        assert 1.15e-6 <= rtt <= 1.6e-6
        rack.detach(attachment)

    def test_numa_distance_reflects_switch_hop(self, rack):
        attachment = rack.attach("node0", 1 * MIB, memory_host="node1")
        kernel = rack.node("node0").kernel
        distance = kernel.topology.distance(
            0, attachment.plan.numa_node_id
        )
        # remote latency 950ns + 2x100ns hop → distance ≈ 135.
        assert distance > 120
        rack.detach(attachment)

    def test_concurrent_attachments_between_disjoint_pairs(self, rack):
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

    def test_auto_donor_selection(self, rack):
        attachment = rack.attach("node1", 1 * MIB)  # planner picks donor
        assert attachment.memory_host != "node1"
        rack.detach(attachment)

    def test_bonded_auto_donor_skips_donor_that_cannot_bond(self):
        rack = RackTestbed(nodes=3)
        state = rack.plane.state
        full = state.xcvr("node1", 1)
        while state.free_capacity(full) > 0:
            state.reserve([full])
        # node1 ties node2 on free memory and comes first, but with one
        # usable transceiver it cannot carry a bonded attach.
        attachment = rack.attach("node0", 1 * MIB, bonded=True)
        assert attachment.memory_host == "node2"
        assert attachment.path.bonded

    def test_detach_releases_ports_for_new_pairs(self, rack):
        # Saturate node0's two channels with two circuits...
        a = rack.attach("node0", 1 * MIB, memory_host="node1")
        b = rack.attach("node0", 1 * MIB, memory_host="node2")
        # ...now both channels carry circuits to different peers; a third
        # distinct destination cannot get a conflict-free circuit.
        with pytest.raises(Exception):
            rack.attach("node0", 1 * MIB, memory_host="node3")
        rack.detach(a)
        c = rack.attach("node0", 1 * MIB, memory_host="node3")
        rack.detach(b)
        rack.detach(c)

    def test_minimum_node_count(self):
        with pytest.raises(ValueError):
            RackTestbed(nodes=1)
