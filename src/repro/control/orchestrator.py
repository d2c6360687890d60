"""The ThymesisFlow control plane orchestrator — paper §IV-C.

Owns the four responsibilities the paper assigns to the control plane:
"i) system state maintenance, ii) configuration of ThymesisFlow
endpoints and possible intermediate switching layers, iii) system
access interface, and iv) security and access control."

The orchestrator never touches hardware directly: it plans over the
state graph, then pushes signed configurations to the per-host agents
(donor steal first, then compute attach) — mirroring the
Janusgraph-backed daemon of the prototype.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.flow import ActiveFlow, FlowTable
from ..errors import ReproError
from ..obs import events as _events
from ..mem.address import AddressError, AddressRange, AddressSpaceAllocator
from ..mem.numa import LOCAL_DISTANCE
from ..osmodel.agent import AttachPlan, StealGrant, ThymesisFlowAgent
from .graph import GraphError, StateGraph
from .planner import NoPathError, PathPlanner, PlannedPath
from .qos import NoHeadroomError, QosClass, QuotaLedger, TenantSpec
from .security import AccessControl, AuthError, Permission, PlaneTrust, Role
from .switching import SwitchDriver, extract_switch_hops

__all__ = [
    "ControlPlane",
    "Attachment",
    "OrchestrationError",
    "UnknownAttachmentError",
]

#: Unloaded single-hop remote access latency (measured prototype RTT).
BASE_REMOTE_LATENCY_S = 950e-9

#: Extra latency per intermediate switching layer on the planned path.
PER_SWITCH_HOP_S = 100e-9

#: Local DRAM latency used to derive SLIT distances for remote nodes.
LOCAL_DRAM_LATENCY_S = 85e-9

#: Remote NUMA node ids handed to compute kernels start here.
REMOTE_NODE_ID_BASE = 100


class OrchestrationError(ReproError, RuntimeError):
    """Attach/detach workflow failure."""

    code = "control/orchestration"


class UnknownAttachmentError(OrchestrationError):
    """Lookup of an attachment id that does not exist (or was detached).

    A dedicated type (and code) so the REST layer maps it to 404 from
    the status table instead of string-matching the message.
    """

    code = "control/unknown-attachment"


@dataclass
class _HostRecord:
    agent: ThymesisFlowAgent
    section_pool: AddressSpaceAllocator
    next_remote_node: int = REMOTE_NODE_ID_BASE


@dataclass
class Attachment:
    """One live disaggregated-memory attachment."""

    attachment_id: int
    compute_host: str
    memory_host: str
    size: int
    flow: ActiveFlow
    plan: AttachPlan
    grant: StealGrant
    path: PlannedPath
    section_run: AddressRange  # run in section-index space
    #: Owning tenant (multi-tenant planes only; admin attaches have none).
    tenant: Optional[str] = None
    #: The tenant's QoS class value at attach time.
    qos: Optional[str] = None

    def describe(self) -> Dict:
        body = {
            "id": self.attachment_id,
            "compute_host": self.compute_host,
            "memory_host": self.memory_host,
            "size": self.size,
            "network_id": self.flow.network_id,
            "bonded": self.flow.bonded,
            "channels": list(self.flow.channels),
            "numa_node": self.plan.numa_node_id,
            "sections": self.plan.section_indices,
        }
        if self.tenant is not None:
            body["tenant"] = self.tenant
            body["qos"] = self.qos
        return body


class ControlPlane:
    """Software-defined attach/detach of disaggregated memory."""

    def __init__(
        self,
        state: Optional[StateGraph] = None,
        acl: Optional[AccessControl] = None,
        trust: Optional[PlaneTrust] = None,
    ):
        self.state = state or StateGraph()
        self.planner = PathPlanner(self.state)
        self.acl = acl or AccessControl()
        self.trust = trust or PlaneTrust.generate()
        self.flows = FlowTable()
        self._hosts: Dict[str, _HostRecord] = {}
        self._switch_drivers: Dict[str, SwitchDriver] = {}
        self._attachments: Dict[int, Attachment] = {}
        self._next_attachment = 1
        #: Multi-tenant surface: per-tenant quotas + QoS classes. A
        #: plane with no registered tenants behaves exactly as before
        #: (every credential is unmetered).
        self.quotas = QuotaLedger()
        self._tenant_tokens: Dict[str, str] = {}
        #: Fraction of total donor capacity kept free for guaranteed
        #: tenants; best-effort attaches that would dip below it are
        #: denied with ``control/no-headroom`` (503). 0 disables.
        self.best_effort_reserve = 0.0
        #: Sim-time source for structured events. The plane itself has
        #: no simulator reference; testbeds wire this to ``sim.now`` so
        #: control events share the datapath timeline. Unwired planes
        #: stamp t=0, keeping pure-control tests simulator-free.
        self.clock: Optional[Callable[[], float]] = None

    def _now(self) -> float:
        clock = self.clock
        return clock() if clock is not None else 0.0

    # -- inventory ------------------------------------------------------------------
    def register_host(
        self,
        agent: ThymesisFlowAgent,
        transceivers: int = 2,
        donor_capacity_bytes: int = 0,
        channel_capacity: int = 64,
    ) -> None:
        """Register one host (its agent + endpoints) with the plane."""
        host = agent.hostname
        if host in self._hosts:
            raise OrchestrationError(f"host {host!r} already registered")
        self.state.add_host(
            host,
            transceivers=transceivers,
            channel_capacity=channel_capacity,
            donor_capacity_bytes=donor_capacity_bytes,
        )
        table_entries = agent.device.rmmu.table_entries
        window = agent.device.compute.window
        if window is not None:
            usable = min(
                table_entries, window.size // agent.kernel.section_bytes
            )
        else:
            usable = table_entries
        self._hosts[host] = _HostRecord(
            agent=agent,
            section_pool=AddressSpaceAllocator(
                AddressRange(0, usable), name=f"{host}/sections"
            ),
        )

    def add_cable(
        self, host_a: str, channel_a: int, host_b: str, channel_b: int
    ) -> None:
        self.state.add_cable(
            self.state.xcvr(host_a, channel_a),
            self.state.xcvr(host_b, channel_b),
        )

    def add_switch(self, switch: str, ports: int,
                   driver: Optional[SwitchDriver] = None) -> None:
        """Register a switching layer; ``driver`` binds it to hardware."""
        self.state.add_switch(switch, ports)
        if driver is not None:
            self._switch_drivers[switch] = driver

    def add_switch_cable(self, host: str, channel: int, switch: str,
                         port: int) -> None:
        self.state.add_cable(
            self.state.xcvr(host, channel),
            self.state.switch_port(switch, port),
        )

    # -- tenancy ------------------------------------------------------------------------
    def register_tenant(
        self,
        name: str,
        qos: "QosClass | str" = QosClass.BURSTABLE,
        max_attachments: Optional[int] = None,
        max_bytes: Optional[int] = None,
        role: Role = Role.OPERATOR,
        token: Optional[str] = None,
    ) -> str:
        """Register a tenant; returns its bearer token.

        The token doubles as the tenant's credential (mapped to
        ``role``) and its identity: attaches made with it are charged
        against the tenant's quota and carry its QoS class. ``token``
        pins a pre-agreed credential for deterministic setups.
        """
        spec = TenantSpec(
            name=name,
            qos=QosClass.parse(qos),
            max_attachments=max_attachments,
            max_bytes=max_bytes,
        )
        self.quotas.register(spec)
        if token is None:
            token = self.acl.issue_token(role)
        else:
            self.acl.register_token(token, role)
        self._tenant_tokens[token] = name
        return token

    def tenant_of(self, token: Optional[str]) -> Optional[str]:
        """Tenant name behind a credential (None for non-tenant tokens)."""
        if token is None:
            return None
        return self._tenant_tokens.get(token)

    def tenant_usage(self, token: Optional[str] = None) -> List[Dict]:
        self.acl.require(token, Permission.READ_STATE)
        return self.quotas.describe()

    # -- attach workflow ---------------------------------------------------------------
    def attach(
        self,
        compute_host: str,
        size: int,
        memory_host: Optional[str] = None,
        bonded: bool = False,
        token: Optional[str] = None,
    ) -> Attachment:
        """Allocate ``size`` bytes of disaggregated memory to a host.

        Full §IV-C workflow: authorize → admit (tenant quota + QoS
        headroom) → pick donor → plan + reserve a path → steal on the
        donor → allocate flow + device sections → push the signed
        attach plan to the compute agent.
        """
        self.acl.require(token, Permission.ATTACH)
        record = self._host(compute_host)
        section_bytes = record.agent.kernel.section_bytes
        size = -(-size // section_bytes) * section_bytes
        tenant = self.tenant_of(token)
        qos: Optional[QosClass] = None
        if tenant is not None:
            spec = self.quotas.spec(tenant)
            qos = spec.qos
            # Charged before any planner work: a quota-denied request
            # (429) must not touch graph state at all.
            self.quotas.charge(tenant, size)
            if (
                qos is QosClass.BEST_EFFORT
                and self.best_effort_reserve > 0.0
            ):
                free, total = self.planner.capacity_headroom()
                if free - size < self.best_effort_reserve * total:
                    self.quotas.release(tenant, size)
                    raise NoHeadroomError(
                        f"best-effort attach of {size} bytes would dip "
                        f"into the guaranteed reserve "
                        f"({free} free of {total}, reserve "
                        f"{self.best_effort_reserve:.0%})",
                        tenant=tenant,
                        free=free,
                        total=total,
                        reserve=self.best_effort_reserve,
                    )
        try:
            attachment = self._attach_planned(
                record, compute_host, size, memory_host, bonded
            )
        except Exception:
            if tenant is not None:
                self.quotas.release(tenant, size)
            raise
        attachment.tenant = tenant
        attachment.qos = qos.value if qos is not None else None
        if _events.ENABLED:
            now = self._now()
            _events.emit(
                now,
                "control.steal",
                attachment=attachment.attachment_id,
                grant=attachment.grant.grant_id,
                memory_host=attachment.memory_host,
                bytes=size,
            )
            fields = dict(
                attachment=attachment.attachment_id,
                compute_host=compute_host,
                memory_host=attachment.memory_host,
                bytes=size,
                network_id=attachment.flow.network_id,
                bonded=bonded,
            )
            if tenant is not None:
                fields["tenant"] = tenant
            _events.emit(now, "control.attach", **fields)
        return attachment

    def _attach_planned(
        self,
        record: _HostRecord,
        compute_host: str,
        size: int,
        memory_host: Optional[str],
        bonded: bool,
    ) -> Attachment:
        """Plan/reserve/apply once the request has been admitted."""
        section_bytes = record.agent.kernel.section_bytes
        channels = 2 if bonded else 1
        if memory_host is None:
            memory_host = self.planner.pick_donor(
                compute_host, size, channels=channels
            )
        donor_record = self._host(memory_host)

        path = self.planner.plan(compute_host, memory_host, channels=channels)
        try:
            self.state.reserve_donor_memory(memory_host, size)
        except GraphError:
            self.planner.release(path)
            raise
        grant: Optional[StealGrant] = None
        flow: Optional[ActiveFlow] = None
        section_run: Optional[AddressRange] = None
        try:
            grant = donor_record.agent.steal_memory(size)
            section_run = record.section_pool.allocate(
                size // section_bytes, alignment=1
            )
            flow = self.flows.allocate(
                compute_host,
                memory_host,
                section_index=section_run.start,
                channels=path.channel_indices,
                bonded=bonded,
            )
            plan = self._build_plan(record, flow, grant, path, section_run)
            self._configure_switches(path)
            try:
                self._verify_and_apply(record.agent, plan)
            except Exception:
                self._teardown_switches(path)
                raise
        except Exception:
            # Unwind partial state in reverse order.
            if flow is not None:
                self.flows.release(flow.network_id)
            if section_run is not None:
                record.section_pool.free(section_run)
            if grant is not None:
                donor_record.agent.release_grant(grant)
            self.state.release_donor_memory(memory_host, size)
            self.planner.release(path)
            raise
        attachment = Attachment(
            attachment_id=self._next_attachment,
            compute_host=compute_host,
            memory_host=memory_host,
            size=size,
            flow=flow,
            plan=plan,
            grant=grant,
            path=path,
            section_run=section_run,
        )
        self._next_attachment += 1
        self._attachments[attachment.attachment_id] = attachment
        return attachment

    def detach(
        self,
        attachment_id: int,
        token: Optional[str] = None,
        force: bool = False,
    ) -> None:
        """Tear an attachment down (reverse order of attach).

        ``force=True`` is the failover path: donor-side steps that
        cannot complete (the lender crashed, the path to it is dark)
        are tolerated and journaled (``control.teardown_failed``,
        ``control.grant_leaked``) instead of aborting — the plane's
        bookkeeping must converge even when the far side is gone. Both
        sides' LLC channels are then quiesced so no retention timer
        keeps replaying frames for a flow that no longer exists.
        """
        self.acl.require(token, Permission.DETACH)
        try:
            attachment = self._attachments.pop(attachment_id)
        except KeyError:
            raise UnknownAttachmentError(
                f"unknown attachment {attachment_id}",
                attachment_id=attachment_id,
            ) from None
        record = self._host(attachment.compute_host)
        donor = self._host(attachment.memory_host)
        record.agent.detach_remote_memory(attachment.plan)
        if force:
            try:
                self._teardown_switches(attachment.path)
            except Exception as exc:  # crashed fabric state
                _events.emit(
                    self._now(), "control.teardown_failed",
                    attachment=attachment_id, error=str(exc),
                )
            try:
                donor.agent.release_grant(attachment.grant)
            except Exception as exc:  # crashed lender: grant leaks
                _events.emit(
                    self._now(), "control.grant_leaked",
                    attachment=attachment_id,
                    grant=attachment.grant.grant_id,
                    memory_host=attachment.memory_host, error=str(exc),
                )
        else:
            self._teardown_switches(attachment.path)
            donor.agent.release_grant(attachment.grant)
        self.flows.release(attachment.flow.network_id)
        record.section_pool.free(attachment.section_run)
        self.state.release_donor_memory(
            attachment.memory_host, attachment.size
        )
        self.planner.release(attachment.path)
        if attachment.tenant is not None:
            self.quotas.release(attachment.tenant, attachment.size)
        if force:
            self._quiesce_attachment_llcs(attachment)
        if _events.ENABLED:
            _events.emit(
                self._now(),
                "control.detach",
                attachment=attachment_id,
                compute_host=attachment.compute_host,
                memory_host=attachment.memory_host,
                network_id=attachment.flow.network_id,
                forced=force,
            )

    def _quiesce_attachment_llcs(self, attachment: Attachment) -> None:
        """Reset both sides' LLC channels after a forced detach.

        A permanently dead link leaves unacknowledged frames in both
        LLCs' retention buffers, whose replay timers would re-arm
        forever; resetting the channels (the firmware link-down path)
        drops that state so the simulation quiesces.
        """
        compute_device = self._host(attachment.compute_host).agent.device
        donor_device = self._host(attachment.memory_host).agent.device
        for channel in attachment.flow.channels:
            if channel < len(compute_device.llcs):
                compute_device.llcs[channel].reset_link()
        for node_path in attachment.path.node_paths:
            donor_xcvr = node_path[-2]
            try:
                channel = self.state.node_attr(donor_xcvr, "channel")
            except GraphError:
                continue
            if channel < len(donor_device.llcs):
                donor_device.llcs[channel].reset_link()

    # -- queries --------------------------------------------------------------------------
    def attachments(self, token: Optional[str] = None) -> List[Attachment]:
        self.acl.require(token, Permission.READ_STATE)
        return [self._attachments[k] for k in sorted(self._attachments)]

    def attachment(self, attachment_id: int,
                   token: Optional[str] = None) -> Attachment:
        self.acl.require(token, Permission.READ_STATE)
        try:
            return self._attachments[attachment_id]
        except KeyError:
            raise UnknownAttachmentError(
                f"unknown attachment {attachment_id}",
                attachment_id=attachment_id,
            ) from None

    def system_state(self, token: Optional[str] = None) -> Dict:
        self.acl.require(token, Permission.READ_STATE)
        return self.state.snapshot()

    # -- internals ----------------------------------------------------------------------
    def _host(self, host: str) -> _HostRecord:
        try:
            return self._hosts[host]
        except KeyError:
            raise OrchestrationError(f"unknown host {host!r}") from None

    def _build_plan(
        self,
        record: _HostRecord,
        flow: ActiveFlow,
        grant: StealGrant,
        path: PlannedPath,
        section_run: AddressRange,
    ) -> AttachPlan:
        switch_hops = max(0, path.hop_count - 2)
        remote_latency = BASE_REMOTE_LATENCY_S + switch_hops * PER_SWITCH_HOP_S
        distance = max(
            LOCAL_DISTANCE,
            round(LOCAL_DISTANCE * remote_latency / LOCAL_DRAM_LATENCY_S),
        )
        node_id = record.next_remote_node
        record.next_remote_node += 1
        return AttachPlan(
            section_indices=list(
                range(section_run.start, section_run.end)
            ),
            donor_effective_base=grant.effective_base,
            wire_network_id=flow.wire_network_id,
            channels=list(flow.channels),
            numa_node_id=node_id,
            numa_distance=distance,
            remote_latency_s=remote_latency,
        )

    def _switch_hops(self, path: PlannedPath):
        for node_path in path.node_paths:
            for switch_name, driver in self._switch_drivers.items():
                for ingress, egress in extract_switch_hops(
                    node_path, switch_name
                ):
                    yield driver, ingress, egress

    def _configure_switches(self, path: PlannedPath) -> None:
        """Push bidirectional circuits for every switch hop on the path."""
        configured = []
        try:
            for driver, ingress, egress in self._switch_hops(path):
                driver.connect(ingress, egress)
                configured.append((driver, ingress, egress))
        except Exception:
            for driver, ingress, egress in reversed(configured):
                driver.disconnect(ingress, egress)
            raise

    def _teardown_switches(self, path: PlannedPath) -> None:
        for driver, ingress, egress in self._switch_hops(path):
            driver.disconnect(ingress, egress)

    def _verify_and_apply(
        self, agent: ThymesisFlowAgent, plan: AttachPlan
    ) -> None:
        """Sign the plan; the agent applies only verified configs."""
        payload = json.dumps(
            {
                "sections": plan.section_indices,
                "donor_base": plan.donor_effective_base,
                "network_id": plan.wire_network_id,
            },
            sort_keys=True,
        ).encode()
        signature = self.trust.sign(payload)
        if not self.trust.verify(payload, signature):
            raise AuthError("configuration signature invalid")
        agent.attach_remote_memory(plan)

