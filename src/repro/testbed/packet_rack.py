"""Rack-scale disaggregation over a *packet-switched* fabric — §VII.

The alternative to :class:`~repro.testbed.rack.RackTestbed`'s circuit
switch: "with a packet-based network … a node could access all other
nodes in the rack with no need for reconfiguration, although packet
networks come with congestion issues as network links are shared
between many connections."

Every node uplink wraps its LLC frames in :class:`Addressed` envelopes;
the store-and-forward switch routes them by destination port with no
light-path setup. Congestion is real: flows converging on one node
share its downlink and the switch's bounded egress queue (drops are
absorbed by the LLC replay protocol).

One modelling caveat, faithful to the current LLC design: each LLC
channel is a point-to-point session (frame ids are per-channel), so a
channel is still *logically pinned* to one peer at a time — the fabric
removes the optical reconfiguration delay and the physical circuit
exclusivity, not the session pinning. True any-to-any sharing of one
channel would need per-peer LLC sessions (future work, as in the
paper).

The same builder as the circuit rack's wires this rack
(:meth:`~repro.testbed.base.TestbedBase._build_switched_rack`), and one
:class:`~repro.control.switching.SwitchDriver` programs both fabrics:
here it drives :class:`PacketFabricDriver`, the session table that pins
each uplink's destination port.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.llc import LlcConfig
from ..net.link import LinkConfig, SerialLink
from ..net.packet import Addressed, PacketSwitch, PacketSwitchError
from .base import TestbedBase
from .node import NodeSpec

__all__ = ["PacketRackTestbed", "AddressedUplink", "PacketFabricDriver"]


class AddressedUplink:
    """Tx-side adapter: wraps LLC frames for the packet fabric.

    Presents the :class:`SerialLink` ``try_send`` interface the LLC
    uses and stamps each frame with the currently-pinned destination
    port.
    """

    def __init__(self, link: SerialLink):
        self.link = link
        self.destination_port: Optional[int] = None
        self.frames_unpinned = 0

    def try_send(self, payload, size_bytes: int,
                 pre_corrupted: bool = False) -> bool:
        if self.destination_port is None:
            # No session pinned: the frame has nowhere to go (parallels
            # dark fibre on the circuit fabric).
            self.frames_unpinned += 1
            return True
        return self.link.try_send(
            Addressed(self.destination_port, payload),
            size_bytes,
            pre_corrupted=pre_corrupted,
        )


class PacketFabricDriver:
    """The packet fabric's session table, programmed by a SwitchDriver.

    "Connecting" ingress to egress just sets the ingress uplink's
    destination port — there is no optical path to program and no
    reconfiguration blackout. The
    :class:`~repro.control.switching.SwitchDriver` above it keeps the
    refcounts and port exclusivity.
    """

    conflict_error = PacketSwitchError

    def __init__(self, uplinks: Dict[int, AddressedUplink]):
        self.uplinks = uplinks

    def connect(self, ingress_port: int, egress_port: int) -> None:
        self.uplinks[ingress_port].destination_port = egress_port

    def disconnect(self, ingress_port: int) -> None:
        self.uplinks[ingress_port].destination_port = None


class PacketRackTestbed(TestbedBase):
    """N nodes on a store-and-forward packet switch, one control plane."""

    SWITCH_NAME = "psw0"

    def __init__(
        self,
        nodes: int = 4,
        channels_per_node: int = 2,
        spec: Optional[NodeSpec] = None,
        llc_config: Optional[LlcConfig] = None,
        link_config: Optional[LinkConfig] = None,
        forwarding_latency_s: float = 300e-9,
        egress_queue_frames: int = 64,
    ):
        self.uplinks: Dict[int, AddressedUplink] = {}
        self._build_switched_rack(
            nodes, channels_per_node, spec, llc_config, link_config,
            make_switch=lambda sim, ports: PacketSwitch(
                sim,
                ports=ports,
                forwarding_latency_s=forwarding_latency_s,
                egress_queue_frames=egress_queue_frames,
                name=self.SWITCH_NAME,
            ),
            fabric=PacketFabricDriver(self.uplinks),
        )

    # -- topology hooks -----------------------------------------------------------
    # (No _settle_after_attach override: there is no reconfiguration
    # blackout — the packet fabric is usable immediately.)

    def _uplink_view(self, port: int, link: SerialLink) -> AddressedUplink:
        uplink = self.uplinks[port] = AddressedUplink(link)
        return uplink
