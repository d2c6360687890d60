"""Integration tests: control plane + agents + testbed, end to end.

These are the "whole paper in one test" scenarios: the control plane
attaches disaggregated memory through the REST API, the kernel sees a
new CPU-less NUMA node, applications allocate from it, and loads/stores
physically land in the donor's DRAM across the simulated wire.
"""

import pytest

from repro.control import (
    AuthError,
    NoPathError,
    OrchestrationError,
    Permission,
    PlaneTrust,
    RestApi,
    Role,
)
from repro.mem import AddressRange, MIB
from repro.obs import event_logging
from repro.osmodel import AgentError, PagePolicy
from repro.testbed import (
    MemoryConfigKind,
    NodeSpec,
    RackTestbed,
    Testbed,
    make_environment,
)

SECTION = 1 * MIB


@pytest.fixture()
def testbed():
    return Testbed()


class TestAttachDetach:
    def test_attach_creates_cpuless_numa_node(self, testbed):
        attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
        kernel = testbed.node0.kernel
        node = kernel.topology.node(attachment.plan.numa_node_id)
        assert node.is_cpuless
        assert node.memory_bytes == 4 * MIB
        assert node.base_latency_s == pytest.approx(950e-9, rel=0.2)

    def test_numa_distance_reflects_rtt(self, testbed):
        attachment = testbed.attach("node0", 2 * MIB, memory_host="node1")
        kernel = testbed.node0.kernel
        distance = kernel.topology.distance(0, attachment.plan.numa_node_id)
        # 950ns remote vs 85ns local → distance ≈ 10 * 950/85 ≈ 112.
        assert 90 <= distance <= 130

    def test_donor_memory_is_pinned(self, testbed):
        testbed.attach("node0", 4 * MIB, memory_host="node1")
        assert len(testbed.node1.kernel.pinned_ranges) == 1
        assert testbed.node1.kernel.pinned_ranges[0].size == 4 * MIB

    def test_functional_load_store_through_attachment(self, testbed):
        attachment = testbed.attach("node0", 2 * MIB, memory_host="node1")
        window = testbed.remote_window_range(attachment)
        payload = bytes(range(128))
        testbed.node0.run_store(window.start, payload)
        assert testbed.node0.run_load(window.start) == payload
        # ... and the bytes physically live on node1.
        donor_base = attachment.grant.effective_base
        assert testbed.node1.dram.read_now(donor_base, 128) == payload

    def test_mmap_from_remote_node_and_touch(self, testbed):
        attachment = testbed.attach("node0", 2 * MIB, memory_host="node1")
        kernel = testbed.node0.kernel
        mapping = kernel.mmap(
            1 * MIB,
            PagePolicy.BIND,
            nodes=[attachment.plan.numa_node_id],
        )
        # Page physical addresses must fall inside the TF window.
        window = testbed.node0.tf_window
        for page in mapping.pages:
            assert window.contains(page.address)
        # Touch the first page through the full datapath.
        address = mapping.pages[0].address
        testbed.node0.run_store(address, b"\xaa" * 128)
        assert testbed.node0.run_load(address) == b"\xaa" * 128

    def test_detach_restores_everything(self, testbed):
        plane = testbed.plane
        attachment = testbed.attach("node0", 2 * MIB, memory_host="node1")
        node_id = attachment.plan.numa_node_id
        testbed.detach(attachment)
        assert node_id in testbed.node0.kernel.topology  # node kept, empty
        assert (
            testbed.node0.kernel.topology.node(node_id).memory_bytes == 0
        )
        assert testbed.node1.kernel.pinned_ranges == []
        assert len(plane.flows) == 0
        assert plane.state.donor_free("node1") == testbed.node1.spec.dram_bytes // 2

    def test_reattach_after_detach(self, testbed):
        first = testbed.attach("node0", 2 * MIB, memory_host="node1")
        testbed.detach(first)
        second = testbed.attach("node0", 2 * MIB, memory_host="node1")
        window = testbed.remote_window_range(second)
        testbed.node0.run_store(window.start, b"\x11" * 128)
        assert testbed.node0.run_load(window.start) == b"\x11" * 128

    def test_bidirectional_attachments(self, testbed):
        """Both nodes borrow from each other simultaneously."""
        a01 = testbed.attach("node0", 2 * MIB, memory_host="node1")
        a10 = testbed.attach("node1", 2 * MIB, memory_host="node0")
        w01 = testbed.remote_window_range(a01)
        w10 = testbed.remote_window_range(a10)
        testbed.node0.run_store(w01.start, b"\x01" * 128)
        testbed.node1.run_store(w10.start, b"\x02" * 128)
        assert testbed.node0.run_load(w01.start) == b"\x01" * 128
        assert testbed.node1.run_load(w10.start) == b"\x02" * 128

    def test_bonded_attachment_uses_two_channels(self, testbed):
        attachment = testbed.attach(
            "node0", 2 * MIB, memory_host="node1", bonded=True
        )
        assert attachment.flow.bonded
        assert len(attachment.path.channel_indices) == 2
        window = testbed.remote_window_range(attachment)
        for i in range(8):
            testbed.node0.run_store(window.start + i * 128, bytes([i]) * 128)
        tx = testbed.node0.device.routing.per_channel_tx
        assert tx[0] > 0 and tx[1] > 0

    def test_donor_capacity_enforced(self, testbed):
        capacity = testbed.node1.spec.dram_bytes // 2
        testbed.attach("node0", capacity, memory_host="node1")
        with pytest.raises(Exception):
            testbed.attach("node0", SECTION, memory_host="node1")

    def test_detach_unknown_id_fails(self, testbed):
        with pytest.raises(OrchestrationError):
            testbed.plane.detach(999, token=testbed.admin_token)

    def test_attach_rolls_back_on_failure(self, testbed):
        plane = testbed.plane
        free_before = plane.state.donor_free("node1")
        # Ask for more memory than the donor kernel can pin contiguously.
        with pytest.raises(Exception):
            testbed.attach(
                "node0",
                testbed.node1.spec.dram_bytes * 2,
                memory_host="node1",
            )
        assert plane.state.donor_free("node1") == free_before
        assert len(plane.flows) == 0

    def test_force_detach_journals_teardown_failure_and_grant_leak(
        self, monkeypatch
    ):
        rack = RackTestbed(nodes=3, channels_per_node=2)
        plane = rack.plane
        headroom_before = plane.planner.capacity_headroom()
        attachment = rack.attach("node0", 2 * MIB, memory_host="node1")

        def dark_fabric(port_a, port_b):
            raise RuntimeError("switch unreachable")

        def crashed_lender(grant):
            raise AgentError("node1: agent crashed")

        monkeypatch.setattr(rack.driver, "disconnect", dark_fabric)
        monkeypatch.setattr(
            rack.node("node1").agent, "release_grant", crashed_lender
        )
        with event_logging() as journal:
            rack.detach(attachment, force=True)

        assert plane.attachments(token=rack.admin_token) == []
        assert plane.planner.capacity_headroom() == headroom_before
        ident = attachment.attachment_id
        kinds = [
            event.kind for event in journal
            if event.fields.get("attachment") == ident
        ]
        assert kinds.count("control.teardown_failed") == 1
        assert kinds.count("control.grant_leaked") == 1
        detach_at = kinds.index("control.detach")
        assert kinds.index("control.teardown_failed") < detach_at
        assert kinds.index("control.grant_leaked") < detach_at
        (leak,) = journal.find("control.grant_leaked", attachment=ident)
        assert leak.fields["grant"] == attachment.grant.grant_id
        assert leak.fields["memory_host"] == "node1"
        assert "crashed" in leak.fields["error"]


class TestAccessControl:
    def test_attach_requires_token(self, testbed):
        with pytest.raises(AuthError):
            testbed.plane.attach("node0", SECTION, memory_host="node1")

    def test_viewer_cannot_attach(self, testbed):
        viewer = testbed.plane.acl.issue_token(Role.VIEWER)
        with pytest.raises(AuthError):
            testbed.plane.attach(
                "node0", SECTION, memory_host="node1", token=viewer
            )

    def test_viewer_can_read_state(self, testbed):
        viewer = testbed.plane.acl.issue_token(Role.VIEWER)
        state = testbed.plane.system_state(token=viewer)
        assert "node0/cep" in state

    def test_operator_can_attach_and_detach(self, testbed):
        operator = testbed.plane.acl.issue_token(Role.OPERATOR)
        attachment = testbed.plane.attach(
            "node0", SECTION, memory_host="node1", token=operator
        )
        testbed.plane.detach(attachment.attachment_id, token=operator)

    def test_revoked_token_rejected(self, testbed):
        token = testbed.plane.acl.issue_token(Role.ADMIN)
        testbed.plane.acl.revoke(token)
        with pytest.raises(AuthError):
            testbed.plane.attach(
                "node0", SECTION, memory_host="node1", token=token
            )

    def test_plane_trust_rejects_tampering(self):
        trust = PlaneTrust.generate()
        signature = trust.sign(b"legit-config")
        assert trust.verify(b"legit-config", signature)
        assert not trust.verify(b"tampered-config", signature)


class TestRestApi:
    def test_full_rest_lifecycle(self, testbed):
        api = RestApi(testbed.plane)
        token = testbed.admin_token
        status, body = api.handle(
            "POST",
            "/v1/attachments",
            {"compute_host": "node0", "size": 2 * MIB,
             "memory_host": "node1"},
            token=token,
        )
        assert status == 201
        attachment_id = body["id"]
        status, body = api.handle("GET", "/v1/attachments", token=token)
        assert status == 200 and len(body["attachments"]) == 1
        status, body = api.handle(
            "GET", f"/v1/attachments/{attachment_id}", token=token
        )
        assert status == 200 and body["compute_host"] == "node0"
        status, _ = api.handle(
            "DELETE", f"/v1/attachments/{attachment_id}", token=token
        )
        assert status == 204
        status, body = api.handle("GET", "/v1/attachments", token=token)
        assert body["attachments"] == []

    def test_missing_token_is_401(self, testbed):
        api = RestApi(testbed.plane)
        status, body = api.handle("GET", "/v1/state")
        assert status == 401

    def test_unknown_attachment_is_404(self, testbed):
        api = RestApi(testbed.plane)
        status, _ = api.handle(
            "DELETE", "/v1/attachments/42", token=testbed.admin_token
        )
        assert status == 404

    def test_bad_body_is_400(self, testbed):
        api = RestApi(testbed.plane)
        status, _ = api.handle(
            "POST", "/v1/attachments", {"size": 1}, token=testbed.admin_token
        )
        assert status == 400

    def test_unroutable_request_is_409(self, testbed):
        api = RestApi(testbed.plane)
        status, body = api.handle(
            "POST",
            "/v1/attachments",
            {"compute_host": "node0", "size": 1 << 40,
             "memory_host": "node1"},
            token=testbed.admin_token,
        )
        assert status == 409

    def test_unknown_route_is_404(self, testbed):
        api = RestApi(testbed.plane)
        status, _ = api.handle("GET", "/v2/bogus", token=testbed.admin_token)
        assert status == 404

    def test_state_snapshot_shape(self, testbed):
        api = RestApi(testbed.plane)
        status, body = api.handle("GET", "/v1/state", token=testbed.admin_token)
        assert status == 200
        assert body["state"]["node0/x0"]["kind"] == "transceiver"


class TestConfigurations:
    def test_all_five_environments_exist(self):
        from repro.testbed import all_environments

        environments = all_environments()
        assert len(environments) == 5

    def test_local_has_no_remote_traffic(self):
        env = make_environment(MemoryConfigKind.LOCAL)
        assert env.remote_fraction == 0.0
        assert not env.uses_thymesisflow

    def test_single_is_fully_remote(self):
        env = make_environment(MemoryConfigKind.SINGLE_DISAGGREGATED)
        assert env.remote_fraction == 1.0
        assert env.remote_latency_s == pytest.approx(950e-9)

    def test_bonding_capped_by_c1_ceiling(self):
        single = make_environment(MemoryConfigKind.SINGLE_DISAGGREGATED)
        bonding = make_environment(MemoryConfigKind.BONDING_DISAGGREGATED)
        assert bonding.remote_bandwidth_bytes_s < 2 * single.remote_bandwidth_bytes_s
        # ~30% improvement, not 2x (§VI-C).
        gain = bonding.remote_bandwidth_bytes_s / single.remote_bandwidth_bytes_s
        assert 1.2 <= gain <= 1.35

    def test_interleaved_is_half_remote(self):
        env = make_environment(MemoryConfigKind.INTERLEAVED)
        assert env.remote_fraction == 0.5
        mean = env.average_miss_latency()
        assert 85e-9 < mean < 950e-9

    def test_scale_out_doubles_cores_and_pays_sync(self):
        env = make_environment(MemoryConfigKind.SCALE_OUT, cores_per_node=32)
        assert env.total_cores == 64
        assert env.instances == 2
        assert env.sync_latency_s > 0


class TestChannelSharing:
    """§IV-A3: "A network channel may be shared concurrently between
    different active thymesisflows"."""

    def test_two_flows_share_one_channel(self, testbed):
        first = testbed.attach("node0", 2 * MIB, memory_host="node1")
        second = testbed.attach("node0", 2 * MIB, memory_host="node1")
        assert first.flow.network_id != second.flow.network_id
        w1 = testbed.remote_window_range(first)
        w2 = testbed.remote_window_range(second)
        assert not w1.overlaps(w2)
        # Interleave traffic on both flows over the shared channel.
        for i in range(8):
            testbed.node0.run_store(w1.start + i * 128, b"\x0a" * 128)
            testbed.node0.run_store(w2.start + i * 128, b"\x0b" * 128)
        for i in range(8):
            assert testbed.node0.run_load(w1.start + i * 128) == b"\x0a" * 128
            assert testbed.node0.run_load(w2.start + i * 128) == b"\x0b" * 128

    def test_flows_land_in_disjoint_donor_ranges(self, testbed):
        first = testbed.attach("node0", 1 * MIB, memory_host="node1")
        second = testbed.attach("node0", 1 * MIB, memory_host="node1")
        r1 = AddressRange(first.grant.effective_base, first.grant.size)
        r2 = AddressRange(second.grant.effective_base, second.grant.size)
        assert not r1.overlaps(r2)

    def test_detaching_one_flow_leaves_the_other_running(self, testbed):
        first = testbed.attach("node0", 1 * MIB, memory_host="node1")
        second = testbed.attach("node0", 1 * MIB, memory_host="node1")
        w2 = testbed.remote_window_range(second)
        testbed.node0.run_store(w2.start, b"\x33" * 128)
        testbed.detach(first)
        assert testbed.node0.run_load(w2.start) == b"\x33" * 128

    def test_bonded_and_unbonded_flows_share_channels(self, testbed):
        """§IV-A3: sharing works "regardless if one or more of them are
        using the channel in bonding mode"."""
        bonded = testbed.attach("node0", 1 * MIB, memory_host="node1",
                                bonded=True)
        plain = testbed.attach("node0", 1 * MIB, memory_host="node1")
        wb = testbed.remote_window_range(bonded)
        wp = testbed.remote_window_range(plain)
        for i in range(6):
            testbed.node0.run_store(wb.start + i * 128, b"\x0c" * 128)
            testbed.node0.run_store(wp.start + i * 128, b"\x0d" * 128)
        for i in range(6):
            assert testbed.node0.run_load(wb.start + i * 128) == b"\x0c" * 128
            assert testbed.node0.run_load(wp.start + i * 128) == b"\x0d" * 128
