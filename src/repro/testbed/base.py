"""One front door for every testbed, and one builder for switched racks.

The three testbeds (:class:`~repro.testbed.prototype.Testbed`,
:class:`~repro.testbed.rack.RackTestbed`,
:class:`~repro.testbed.packet_rack.PacketRackTestbed`) share one API:
:class:`TestbedProtocol` is the structural contract —
attach/detach/run/register_observability with **one** signature and one
:class:`~repro.control.orchestrator.Attachment` return type — and
:class:`TestbedBase` implements it once, with small hooks for the
per-topology differences (the circuit switch's reconfiguration blackout,
which links belong to which host).

The two §VII racks differ only in their switch, and one builder,
:meth:`TestbedBase._build_switched_rack`, wires either: N nodes whose
channels each own a switch port (uplink into the port's ingress,
downlink from its egress), a control plane that knows the hosts, the
switch and its cables, and one
:class:`~repro.control.switching.SwitchDriver` whose circuit hooks
re-sync the LLCs at both ends.

``memory_host``/``bonded``/``token`` are keyword-only: passing them
positionally raises :class:`TypeError` straight from the signature.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, List, Optional, Protocol, runtime_checkable,
)

from ..control.orchestrator import Attachment, ControlPlane
from ..control.security import Role
from ..control.switching import SwitchDriver
from ..core.llc import LlcConfig
from ..mem.address import AddressRange
from ..net.link import ChannelEndpointView, LinkConfig, SerialLink
from ..sim.engine import Simulator
from .node import Ac922Node, NodeSpec

__all__ = ["TestbedProtocol", "TestbedBase"]


@runtime_checkable
class TestbedProtocol(Protocol):
    """What every testbed exposes: the unified experiment surface."""

    sim: Simulator
    plane: ControlPlane
    nodes: List[Ac922Node]
    admin_token: str

    def node(self, hostname: str) -> Ac922Node:
        ...

    def attach(
        self,
        compute_host: str,
        size: int,
        *,
        memory_host: Optional[str] = None,
        bonded: bool = False,
        token: Optional[str] = None,
    ) -> Attachment:
        ...

    def detach(self, attachment: Attachment, *, force: bool = False) -> None:
        ...

    def remote_window_range(self, attachment: Attachment) -> AddressRange:
        ...

    def run(self, until: Optional[float] = None) -> float:
        ...

    def register_observability(self, registry) -> None:
        ...

    def links_of(self, hostname: str) -> List[SerialLink]:
        ...


class TestbedBase:
    """Shared implementation of :class:`TestbedProtocol`.

    Subclasses build ``sim``/``plane``/``nodes``/``admin_token`` in
    their constructors (a switched rack calls
    :meth:`_build_switched_rack`) and may override the hooks:

    * :meth:`_settle_after_attach` — e.g. the circuit switch's optical
      reconfiguration blackout.
    * :meth:`_uplink_view` — what a rack node's LLC transmits into.
    * :meth:`_register_network` and :meth:`links_of` — per-topology
      link metrics and fault domains (a rack's are its node links).
    """

    __test__ = False  # not a pytest class, despite subclass names

    sim: Simulator
    plane: ControlPlane
    nodes: List[Ac922Node]
    admin_token: str
    #: Switched racks only: name of the switch in the plane's graph.
    SWITCH_NAME: str

    # -- switched-rack construction ------------------------------------------------
    def _build_switched_rack(
        self,
        nodes: int,
        channels_per_node: int,
        spec: Optional[NodeSpec],
        llc_config: Optional[LlcConfig],
        link_config: Optional[LinkConfig],
        make_switch: Callable[[Simulator, int], Any],
        fabric: Any = None,
    ) -> None:
        """Wire ``nodes`` nodes to one switch and bind a plane to it.

        ``make_switch(sim, ports)`` builds the switch; the plane's
        :class:`SwitchDriver` programs ``fabric``, which defaults to
        the switch itself. Node channel ``c`` of node ``i`` owns switch
        port ``i * channels_per_node + c``.
        """
        if nodes < 2:
            raise ValueError(f"need >= 2 nodes, got {nodes}")
        self.sim = Simulator()
        self.spec = spec or NodeSpec()
        link_config = link_config or LinkConfig()
        self.channels_per_node = channels_per_node
        ports = nodes * channels_per_node
        self.switch = make_switch(self.sim, ports)

        self.nodes = []
        self._node_links: Dict[str, List[SerialLink]] = {}
        for index in range(nodes):
            node = Ac922Node(self.sim, f"node{index}", self.spec, llc_config)
            self.nodes.append(node)
            links = self._node_links[node.hostname] = []
            for channel in range(channels_per_node):
                port = index * channels_per_node + channel
                # Uplink terminates directly on the switch port ingress;
                # the downlink is the switch port's egress fibre.
                name = f"node{index}.c{channel}"
                up = SerialLink(self.sim, link_config, name=f"{name}.up",
                                rx_store=self.switch.ingress_store(port))
                down = SerialLink(self.sim, link_config, name=f"{name}.down")
                self.switch.attach_egress(port, down)
                node.device.connect_channel(
                    ChannelEndpointView(self._uplink_view(port, up), down)
                )
                links.extend((up, down))

        self.plane = ControlPlane()
        # Control events share the datapath's sim-time timeline.
        self.plane.clock = lambda: self.sim.now
        self.driver = SwitchDriver(
            self.SWITCH_NAME,
            self.switch if fabric is None else fabric,
            on_circuit_up=self._reset_circuit_llcs,
            on_circuit_down=self._reset_circuit_llcs,
        )
        for node in self.nodes:
            self.plane.register_host(
                node.agent,
                transceivers=channels_per_node,
                donor_capacity_bytes=node.spec.dram_bytes // 2,
            )
        self.plane.add_switch(self.SWITCH_NAME, ports, driver=self.driver)
        for port in range(ports):
            index, channel = divmod(port, channels_per_node)
            self.plane.add_switch_cable(
                f"node{index}", channel, self.SWITCH_NAME, port
            )
        self.admin_token = self.plane.acl.issue_token(Role.ADMIN)

    def _uplink_view(self, port: int, link: SerialLink) -> Any:
        """Hook: the tx side a rack node's LLC sends through on ``port``."""
        return link

    def _reset_circuit_llcs(self, port_a: int, port_b: int) -> None:
        """Link bring-up on a fresh circuit: both LLCs agree on frame
        identifiers (§IV-A4) — stale state from a previous peer is
        discarded before any transaction flows."""
        for port in (port_a, port_b):
            index, channel = divmod(port, self.channels_per_node)
            self.nodes[index].device.llcs[channel].reset_link()

    # -- node lookup ---------------------------------------------------------------
    def node(self, hostname: str) -> Ac922Node:
        for node in self.nodes:
            if node.hostname == hostname:
                return node
        raise KeyError(f"no node {hostname!r}")

    # -- attach / detach -----------------------------------------------------------
    def attach(
        self,
        compute_host: str,
        size: int,
        *,
        memory_host: Optional[str] = None,
        bonded: bool = False,
        token: Optional[str] = None,
    ) -> Attachment:
        """Attach ``size`` bytes of disaggregated memory to a host.

        Uses the admin credential unless ``token`` is given. Returns
        once the fabric is usable (after any reconfiguration blackout).
        """
        attachment = self.plane.attach(
            compute_host,
            size,
            memory_host=memory_host,
            bonded=bonded,
            token=token if token is not None else self.admin_token,
        )
        self._settle_after_attach(attachment)
        return attachment

    def detach(self, attachment: Attachment, *, force: bool = False) -> None:
        self.plane.detach(
            attachment.attachment_id, token=self.admin_token, force=force
        )

    def _settle_after_attach(self, attachment: Attachment) -> None:
        """Hook: wait out fabric bring-up before traffic flows."""

    # -- addressing ----------------------------------------------------------------
    def remote_window_range(self, attachment: Attachment) -> AddressRange:
        """Real-address range the attachment occupies on the compute node."""
        node = self.node(attachment.compute_host)
        section_bytes = node.spec.section_bytes
        first = attachment.plan.section_indices[0]
        count = len(attachment.plan.section_indices)
        return AddressRange(
            node.tf_window.start + first * section_bytes,
            count * section_bytes,
        )

    # -- execution -----------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Advance the shared simulation (to ``until``, or until idle)."""
        return self.sim.run(until=until)

    # -- observability -------------------------------------------------------------
    def register_observability(self, registry) -> None:
        """Register every node plus the topology's network elements."""
        for node in self.nodes:
            node.register_observability(registry)
        self._register_network(registry)

    def _register_network(self, registry) -> None:
        """Hook: per-topology link/switch metric registration."""
        for links in self._node_links.values():
            for link in links:
                link.register_metrics(registry)

    # -- fault domains --------------------------------------------------------------
    def links_of(self, hostname: str) -> List[SerialLink]:
        """The serial links whose failure isolates ``hostname``.

        Fault campaigns target these (install an injector, kill or
        degrade the link). On a switched rack they are the host's own
        uplinks and downlinks.
        """
        self.node(hostname)  # KeyError on unknown host
        return list(self._node_links[hostname])
