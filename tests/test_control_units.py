"""Unit tests for the control-plane pieces in isolation: state graph,
path planner, and the agent's attach/detach mechanics."""

import pytest

from repro.control import (
    GraphError,
    NoPathError,
    NodeKind,
    PathPlanner,
    StateGraph,
)
from repro.core import ThymesisFlowDevice
from repro.mem import AddressRange, MIB
from repro.opencapi import PasidRegistry
from repro.osmodel import AgentError, AttachPlan, LinuxKernel, ThymesisFlowAgent
from repro.sim import Simulator


def two_host_graph(transceivers=2, donor=1 << 30):
    state = StateGraph()
    state.add_host("a", transceivers=transceivers, donor_capacity_bytes=donor)
    state.add_host("b", transceivers=transceivers, donor_capacity_bytes=donor)
    for channel in range(transceivers):
        state.add_cable(state.xcvr("a", channel), state.xcvr("b", channel))
    return state


class TestStateGraph:
    def test_host_registration_creates_nodes(self):
        state = two_host_graph()
        snapshot = state.snapshot()
        assert snapshot["a/cep"]["kind"] == "compute"
        assert snapshot["a/mep"]["kind"] == "memory"
        assert snapshot["a/x0"]["kind"] == "transceiver"

    def test_duplicate_host_rejected(self):
        state = two_host_graph()
        with pytest.raises(GraphError):
            state.add_host("a", transceivers=1)

    def test_cable_requires_cableable_endpoints(self):
        state = two_host_graph()
        with pytest.raises(GraphError):
            state.add_cable(state.cep("a"), state.xcvr("b", 0))
        with pytest.raises(GraphError):
            state.add_cable("ghost/x0", state.xcvr("b", 0))

    def test_reservation_capacity(self):
        state = StateGraph()
        state.add_host("a", transceivers=1, channel_capacity=2)
        xcvr = state.xcvr("a", 0)
        state.reserve([xcvr])
        state.reserve([xcvr])
        with pytest.raises(GraphError):
            state.reserve([xcvr])
        state.release([xcvr])
        state.reserve([xcvr])

    def test_release_without_reserve_rejected(self):
        state = two_host_graph()
        with pytest.raises(GraphError):
            state.release([state.xcvr("a", 0)])

    def test_donor_accounting(self):
        state = two_host_graph(donor=1000)
        state.reserve_donor_memory("b", 800)
        assert state.donor_free("b") == 200
        with pytest.raises(GraphError):
            state.reserve_donor_memory("b", 300)
        state.release_donor_memory("b", 800)
        assert state.donor_free("b") == 1000

    def test_hosts_listing(self):
        state = two_host_graph()
        assert state.hosts() == ["a", "b"]


class TestPathPlanner:
    def test_direct_path_found(self):
        state = two_host_graph()
        planner = PathPlanner(state)
        path = planner.plan("a", "b")
        assert path.compute_host == "a"
        assert path.channel_indices in ((0,), (1,))
        assert path.hop_count == 2  # two transceivers, no switch

    def test_bonded_paths_are_disjoint(self):
        state = two_host_graph()
        planner = PathPlanner(state)
        path = planner.plan("a", "b", channels=2)
        assert sorted(path.channel_indices) == [0, 1]
        assert len(set(path.reserved_nodes)) == len(path.reserved_nodes)

    def test_bonding_impossible_with_one_cable(self):
        state = StateGraph()
        state.add_host("a", transceivers=2)
        state.add_host("b", transceivers=2)
        state.add_cable(state.xcvr("a", 0), state.xcvr("b", 0))
        planner = PathPlanner(state)
        with pytest.raises(NoPathError):
            planner.plan("a", "b", channels=2)

    def test_exhausted_capacity_blocks_planning(self):
        state = StateGraph()
        state.add_host("a", transceivers=1, channel_capacity=1)
        state.add_host("b", transceivers=1, channel_capacity=1,
                       donor_capacity_bytes=1 << 30)
        state.add_cable(state.xcvr("a", 0), state.xcvr("b", 0))
        planner = PathPlanner(state)
        first = planner.plan("a", "b")
        with pytest.raises(NoPathError):
            planner.plan("a", "b")
        planner.release(first)
        planner.plan("a", "b")

    def test_path_through_switch(self):
        state = StateGraph()
        state.add_host("a", transceivers=1)
        state.add_host("b", transceivers=1, donor_capacity_bytes=1 << 30)
        state.add_switch("sw", ports=4)
        state.add_cable(state.xcvr("a", 0), state.switch_port("sw", 0))
        state.add_cable(state.xcvr("b", 0), state.switch_port("sw", 2))
        planner = PathPlanner(state)
        path = planner.plan("a", "b")
        assert path.hop_count == 4  # xcvr, port, port, xcvr
        assert any("sw/p" in node for node in path.reserved_nodes)

    def test_direct_path_preferred_over_switch(self):
        state = two_host_graph()
        state.add_switch("sw", ports=4)
        state.add_cable(state.xcvr("a", 1), state.switch_port("sw", 0))
        state.add_cable(state.xcvr("b", 1), state.switch_port("sw", 1))
        planner = PathPlanner(state)
        # Remove the direct cable on channel 1 so channel 0 is direct and
        # channel 1 goes through the switch; shortest wins.
        path = planner.plan("a", "b")
        assert path.hop_count == 2

    def test_same_host_rejected(self):
        planner = PathPlanner(two_host_graph())
        with pytest.raises(GraphError):
            planner.plan("a", "a")

    def test_unknown_host_rejected(self):
        planner = PathPlanner(two_host_graph())
        with pytest.raises(NoPathError):
            planner.plan("a", "ghost")

    def test_pick_donor_prefers_most_free(self):
        state = StateGraph()
        state.add_host("a", transceivers=2)
        state.add_host("b", transceivers=2, donor_capacity_bytes=100)
        state.add_host("c", transceivers=2, donor_capacity_bytes=500)
        state.add_cable(state.xcvr("a", 0), state.xcvr("b", 0))
        state.add_cable(state.xcvr("a", 1), state.xcvr("c", 0))
        planner = PathPlanner(state)
        assert planner.pick_donor("a", 50) == "c"
        assert planner.pick_donor("a", 50, exclude=("c",)) == "b"
        with pytest.raises(NoPathError):
            planner.pick_donor("a", 10_000)

    def test_pick_donor_for_bonding_needs_two_disjoint_paths(self):
        state = StateGraph()
        state.add_host("a", transceivers=3)
        state.add_host("b", transceivers=2, donor_capacity_bytes=100)
        state.add_host("c", transceivers=2, donor_capacity_bytes=500)
        state.add_cable(state.xcvr("a", 0), state.xcvr("b", 0))
        state.add_cable(state.xcvr("a", 1), state.xcvr("b", 1))
        state.add_cable(state.xcvr("a", 2), state.xcvr("c", 0))
        planner = PathPlanner(state)
        assert planner.pick_donor("a", 50) == "c"
        with pytest.raises(NoPathError):
            planner.plan("a", "c", channels=2)
        assert planner.pick_donor("a", 50, channels=2) == "b"
        assert planner.plan("a", "b", channels=2).bonded
        with pytest.raises(NoPathError):
            planner.pick_donor("a", 200, channels=2)


class TestAgentMechanics:
    def make_agent(self):
        sim = Simulator()
        kernel = LinuxKernel("host", section_bytes=1 * MIB)
        kernel.add_boot_memory(0, AddressRange(0, 64 * MIB), cpu_count=8)
        device = ThymesisFlowDevice(sim, section_bytes=1 * MIB)
        from repro.opencapi import SystemBus

        bus = SystemBus(sim)
        pasids = PasidRegistry()
        device.attach_compute(bus, AddressRange(0x1_0000_0000, 16 * MIB))
        device.enable_memory_role(bus, pasids)
        return ThymesisFlowAgent("host", kernel, device, pasids)

    def plan(self, sections=(0, 1), network_id=3):
        return AttachPlan(
            section_indices=list(sections),
            donor_effective_base=0x100000,
            wire_network_id=network_id,
            channels=[0],
            numa_node_id=50,
            numa_distance=112,
            remote_latency_s=950e-9,
        )

    def test_steal_rounds_to_sections(self):
        agent = self.make_agent()
        grant = agent.steal_memory(100)  # rounds up to 1 MiB
        assert grant.size == 1 * MIB
        assert agent.kernel.pinned_ranges[0].size == 1 * MIB

    def test_steal_registers_pasid_window(self):
        agent = self.make_agent()
        grant = agent.steal_memory(1 * MIB)
        agent.pasids.check_access(grant.pasid, grant.effective_base, 128)

    def test_release_grant_cleans_up(self):
        agent = self.make_agent()
        grant = agent.steal_memory(1 * MIB)
        agent.release_grant(grant)
        assert agent.kernel.pinned_ranges == []
        with pytest.raises(Exception):
            agent.release_grant(grant)

    def test_attach_requires_channel(self):
        agent = self.make_agent()
        # No channels connected: programming the route must fail and the
        # datapath stays unconfigured.
        with pytest.raises(Exception):
            agent.attach_remote_memory(self.plan())

    def test_attach_programs_rmmu_and_kernel(self):
        agent = self.make_agent()
        self._connect_channel(agent)
        attached = agent.attach_remote_memory(self.plan())
        assert attached == 2 * MIB
        assert agent.device.rmmu.installed_sections() == [0, 1]
        assert 50 in agent.kernel.topology
        assert agent.kernel.topology.node(50).memory_bytes == 2 * MIB

    def test_detach_reverses_attach(self):
        agent = self.make_agent()
        self._connect_channel(agent)
        plan = self.plan()
        agent.attach_remote_memory(plan)
        removed = agent.detach_remote_memory(plan)
        assert removed == 2 * MIB
        assert agent.device.rmmu.installed_sections() == []
        assert agent.kernel.topology.node(50).memory_bytes == 0

    def test_section_size_mismatch_detected(self):
        sim = Simulator()
        kernel = LinuxKernel("host", section_bytes=2 * MIB)
        kernel.add_boot_memory(0, AddressRange(0, 64 * MIB), cpu_count=8)
        device = ThymesisFlowDevice(sim, section_bytes=1 * MIB)
        from repro.opencapi import SystemBus

        bus = SystemBus(sim)
        device.attach_compute(bus, AddressRange(0x1_0000_0000, 16 * MIB))
        device.enable_memory_role(bus, PasidRegistry())
        agent = ThymesisFlowAgent("host", kernel, device, PasidRegistry())
        self._connect_channel(agent)
        with pytest.raises(AgentError, match="disagree"):
            agent.attach_remote_memory(self.plan())

    @staticmethod
    def _connect_channel(agent):
        from repro.net import DuplexChannel

        channel = DuplexChannel(agent.device.sim)
        agent.device.connect_channel(channel.endpoint_view("a"))
