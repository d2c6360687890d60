"""The ThymesisFlow card: RMMU + routing + per-channel LLCs + endpoints.

One device instance models one Alpha Data 9V3 FPGA running the
ThymesisFlow design (§V): it terminates the OpenCAPI host link (M1
and/or C1 mode), owns two independent 100 Gbit/s network channels, and
exposes its configuration space as MMIO for the user-space agent.

Both roles can be active on the same card at once — a node can donate
memory to one neighbour while borrowing from another — which is why the
routing layer dispatches ingress by transaction type: requests go to the
memory-stealing endpoint, responses to the compute endpoint.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..mem.address import AddressRange, DEFAULT_SECTION_BYTES
from ..net.link import ChannelEndpointView
from ..opencapi.bus import SystemBus
from ..opencapi.mmio import MmioRegisterFile
from ..opencapi.pasid import PasidRegistry
from ..opencapi.ports import OpenCapiC1Port, OpenCapiM1Port
from ..opencapi.transactions import MemTransaction
from ..sim.engine import Simulator
from .endpoints import (
    ComputeEndpoint,
    EndpointError,
    MemoryStealingEndpoint,
    RetryPolicy,
)
from .hbm import HbmCache, HbmCacheConfig
from .llc import LlcConfig, LlcEndpoint
from .rmmu import Rmmu
from .routing import RoutingLayer

__all__ = ["ThymesisFlowDevice"]


class ThymesisFlowDevice:
    """A complete ThymesisFlow FPGA instance.

    Typical bring-up (done by :mod:`repro.testbed` / the control plane):

    1. ``connect_channel(view)`` for each cabled network channel.
    2. Compute role: ``attach_compute(bus, window)`` — firmware maps the
       real-address window and wires the M1 port.
    3. Memory role: ``enable_memory_role(bus, pasids)`` — creates the C1
       port mastering into the donor's bus.
    4. The agent programs sections and routes through :attr:`mmio` (or
       the typed helpers :meth:`program_section` / :meth:`program_route`).
    """

    #: The prototype drives two independent 100 Gb/s channels per card.
    MAX_CHANNELS = 2

    def __init__(
        self,
        sim: Simulator,
        name: str = "tf",
        section_bytes: int = DEFAULT_SECTION_BYTES,
        llc_config: Optional[LlcConfig] = None,
        max_channels: int = MAX_CHANNELS,
        host_crossing_s: Optional[float] = None,
        transaction_timeout_s: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.sim = sim
        self.name = name
        self.max_channels = max_channels
        #: Host-link serdes crossing; 0.0 models the §VII projection of
        #: a ThymesisFlow integrated into the processor SoC ("would save
        #: four serDES crossings" per round trip). None = off-chip FPGA.
        self.host_crossing_s = host_crossing_s
        self.llc_config = llc_config or LlcConfig()
        self.mmio = MmioRegisterFile(name=f"{name}.mmio")
        self.routing = RoutingLayer(sim, name=f"{name}.rt")
        self.routing.set_rx_handler(self._dispatch)
        self.rmmu = Rmmu(section_bytes=section_bytes, name=f"{name}.rmmu")
        self.rmmu.attach_mmio(self.mmio, base_offset=0x100)
        self.compute = ComputeEndpoint(
            sim,
            self.rmmu,
            self.routing,
            name=f"{name}.compute",
            transaction_timeout_s=transaction_timeout_s,
            retry_policy=retry_policy,
        )
        self.memory: Optional[MemoryStealingEndpoint] = None
        self.m1_port: Optional[OpenCapiM1Port] = None
        self.c1_port: Optional[OpenCapiC1Port] = None
        self.llcs: List[LlcEndpoint] = []
        self._define_route_mmio()

    # -- channel wiring ----------------------------------------------------------
    def connect_channel(self, view: ChannelEndpointView) -> int:
        """Terminate one network channel on this card."""
        if len(self.llcs) >= self.max_channels:
            raise EndpointError(
                f"{self.name}: all {self.max_channels} channels in use"
            )
        index = len(self.llcs)
        llc = LlcEndpoint(
            self.sim, view, self.llc_config, name=f"{self.name}.llc{index}"
        )
        self.llcs.append(llc)
        assert self.routing.add_channel(llc) == index
        return index

    # -- compute role -------------------------------------------------------------
    def attach_compute(self, bus: SystemBus, window: AddressRange) -> None:
        """Map this device's compute endpoint into a host bus window."""
        if self.host_crossing_s is None:
            self.m1_port = OpenCapiM1Port(self.sim, name=f"{self.name}.m1")
        else:
            self.m1_port = OpenCapiM1Port(
                self.sim,
                name=f"{self.name}.m1",
                crossing_latency_s=self.host_crossing_s,
            )
        self.m1_port.connect_device(self.compute)
        self.compute.assign_window(window)
        self.m1_port.attach_to_bus(bus, window)

    # -- HBM caching layer (§VII extension) ----------------------------------------------
    def enable_hbm_cache(
        self, config: Optional[HbmCacheConfig] = None
    ) -> HbmCache:
        """Add the on-card HBM cache in front of the compute RMMU."""
        cache = HbmCache(config, name=f"{self.name}.hbm")
        self.compute.enable_hbm_cache(cache)
        return cache

    # -- memory-stealing role ---------------------------------------------------------
    def enable_memory_role(
        self, donor_bus: SystemBus, pasids: PasidRegistry
    ) -> MemoryStealingEndpoint:
        """Create the C1 mastering path into the donor host's memory."""
        if self.host_crossing_s is None:
            self.c1_port = OpenCapiC1Port(
                self.sim, donor_bus, pasids, name=f"{self.name}.c1"
            )
        else:
            self.c1_port = OpenCapiC1Port(
                self.sim,
                donor_bus,
                pasids,
                name=f"{self.name}.c1",
                crossing_latency_s=self.host_crossing_s,
            )
        self.memory = MemoryStealingEndpoint(
            self.sim, self.c1_port, self.routing, name=f"{self.name}.memory"
        )
        return self.memory

    # -- agent-facing configuration helpers ----------------------------------------------
    def program_section(
        self, section_index: int, donor_base: int, wire_network_id: int
    ) -> None:
        """Program one RMMU section entry through the MMIO interface."""
        self.mmio.write_named("RMMU_SECTION_INDEX", section_index)
        self.mmio.write_named("RMMU_DONOR_BASE", donor_base)
        self.mmio.write_named("RMMU_SECTION_CTRL", wire_network_id)

    def clear_section(self, section_index: int) -> None:
        self.mmio.write_named("RMMU_SECTION_INDEX", section_index)
        self.mmio.write_named("RMMU_SECTION_CTRL", (1 << 64) - 1)
        if self.compute.hbm is not None:
            # Cached copies of a detached section must not survive a
            # future attachment reusing the same device sections.
            section_bytes = self.rmmu.section_bytes
            self.compute.hbm.invalidate_range(
                section_index * section_bytes, section_bytes
            )

    def program_route(self, network_id: int, channels: List[int]) -> None:
        """Program the routing table through the MMIO interface."""
        mask = 0
        for channel in channels:
            mask |= 1 << channel
        self.mmio.write_named("ROUTE_NETWORK_ID", network_id)
        self.mmio.write_named("ROUTE_CHANNEL_MASK", mask)
        self.mmio.write_named("ROUTE_CTRL", 1)

    def clear_route(self, network_id: int) -> None:
        self.mmio.write_named("ROUTE_NETWORK_ID", network_id)
        self.mmio.write_named("ROUTE_CTRL", 0)

    # -- observability ------------------------------------------------------------------
    def register_metrics(self, registry, **labels) -> None:
        """Register every sub-component of this card into ``registry``."""
        self.rmmu.register_metrics(registry, **labels)
        self.routing.register_metrics(registry, **labels)
        self.compute.register_metrics(registry, **labels)
        if self.memory is not None:
            self.memory.register_metrics(registry, **labels)
        for llc in self.llcs:
            llc.register_metrics(registry, **labels)

    # -- internals ----------------------------------------------------------------------
    def _define_route_mmio(self) -> None:
        state = {"network_id": 0, "mask": 0}
        self.mmio.define(
            "ROUTE_NETWORK_ID",
            0x200,
            on_write=lambda v: state.__setitem__("network_id", v),
        )
        self.mmio.define(
            "ROUTE_CHANNEL_MASK",
            0x208,
            on_write=lambda v: state.__setitem__("mask", v),
        )

        def commit(value: int) -> None:
            if value == 0:
                self.routing.remove_route(state["network_id"])
                return
            channels = [
                index
                for index in range(self.max_channels)
                if state["mask"] & (1 << index)
            ]
            self.routing.install_route(state["network_id"], channels)

        self.mmio.define("ROUTE_CTRL", 0x210, on_write=commit)
        self.mmio.define(
            "CHANNEL_COUNT",
            0x218,
            readonly=True,
            on_read=lambda: len(self.llcs),
        )

    def _dispatch(self, txn: MemTransaction, channel: int) -> None:
        """Route network ingress to the right endpoint role."""
        if txn.is_request:
            if self.memory is None:
                raise EndpointError(
                    f"{self.name}: request arrived but memory role disabled"
                )
            self.memory.deliver_request(txn, channel)
        else:
            self.compute.deliver_response(txn, channel)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        roles = ["compute"] if self.m1_port else []
        if self.memory is not None:
            roles.append("memory")
        return (
            f"ThymesisFlowDevice({self.name!r}, roles={roles}, "
            f"channels={len(self.llcs)})"
        )
