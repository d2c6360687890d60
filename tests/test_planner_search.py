"""The planner's bounded path search against exhaustive enumeration.

The reference below enumerates every simple cep→mep path of at most six
edges with networkx, drops paths through another endpoint or a node
without free capacity, and ranks the rest by (length, -least free
capacity) with a stable sort. ``PathPlanner.candidate_paths`` prunes
that search; it must return the same list in the same order.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import NodeKind, PathPlanner, StateGraph
from repro.testbed import PacketRackTestbed, RackTestbed, Testbed

_ENDPOINTS = (NodeKind.COMPUTE_ENDPOINT, NodeKind.MEMORY_ENDPOINT)


def reference_paths(state, compute_host, memory_host):
    graph = state.graph
    usable = []
    for path in nx.all_simple_paths(
        graph, state.cep(compute_host), state.mep(memory_host), cutoff=6
    ):
        middle = path[1:-1]
        if any(graph.nodes[node]["kind"] in _ENDPOINTS for node in middle):
            continue
        if all(state.free_capacity(node) > 0 for node in middle):
            usable.append(path)
    usable.sort(
        key=lambda p: (len(p), -min(state.free_capacity(n) for n in p[1:-1]))
    )
    return usable


def assert_matches_reference(state):
    planner = PathPlanner(state)
    for compute_host in state.hosts():
        for memory_host in state.hosts():
            assert planner.candidate_paths(
                compute_host, memory_host
            ) == reference_paths(state, compute_host, memory_host)


def cableable(state):
    return [
        node for node, data in state.graph.nodes(data=True)
        if data["kind"] not in _ENDPOINTS
    ]


def saturate(state, nodes):
    for node in nodes:
        while state.free_capacity(node) > 0:
            state.reserve([node])


@st.composite
def state_graphs(draw):
    """2-6 hosts of 1-3 transceivers, 0-2 switches of 2-8 ports,
    random cables and reservations, capacities small enough for the
    reservations to fill some nodes."""
    state = StateGraph()
    for index in range(draw(st.integers(2, 6))):
        state.add_host(
            f"h{index}",
            transceivers=draw(st.integers(1, 3)),
            channel_capacity=draw(st.integers(1, 3)),
        )
    for index in range(draw(st.integers(0, 2))):
        state.add_switch(
            f"sw{index}",
            ports=draw(st.integers(2, 8)),
            port_capacity=draw(st.integers(1, 3)),
        )
    ends = cableable(state)
    cables = draw(st.lists(
        st.tuples(st.sampled_from(ends), st.sampled_from(ends)),
        max_size=14,
    ))
    for end_a, end_b in cables:
        if end_a != end_b:
            state.add_cable(end_a, end_b)
    for node in draw(st.lists(st.sampled_from(ends), max_size=12)):
        if state.free_capacity(node) > 0:
            state.reserve([node])
    return state


@settings(max_examples=150, deadline=None)
@given(state_graphs())
def test_random_graphs_match_reference(state):
    assert_matches_reference(state)


class TestWiredTestbeds:
    """The graphs the testbeds wire, as built and with some nodes full."""

    def check(self, testbed):
        state = testbed.plane.state
        assert_matches_reference(state)
        saturate(state, cableable(state)[::3])
        assert_matches_reference(state)

    def test_prototype(self):
        self.check(Testbed())

    def test_circuit_rack(self):
        self.check(RackTestbed(nodes=4))

    def test_packet_rack(self):
        self.check(PacketRackTestbed(nodes=4))

    def test_after_bonded_attaches(self):
        rack = PacketRackTestbed(nodes=4)
        rack.attach("node0", 1 << 20, memory_host="node1", bonded=True)
        rack.attach("node2", 1 << 20, memory_host="node3", bonded=True)
        assert_matches_reference(rack.plane.state)
