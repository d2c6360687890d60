"""The per-host user-space ThymesisFlow agent — paper §IV-B.

"A user-space agent runs as a daemon on every host, to issue the
appropriate configuration commands received from the orchestration
layer. The role of the user-space agent is twofold: i) configure the
compute endpoint … or, ii) allocate local host memory and make it
available to the memory-stealing endpoint."

The agent is the only component that touches both the device MMIO space
and the kernel hotplug interface; the control plane talks to agents
exclusively (it never programs hardware directly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.device import ThymesisFlowDevice
from ..mem.address import AddressRange
from ..mem.numa import LOCAL_DISTANCE
from ..opencapi.pasid import PasidRegistry
from .kernel import LinuxKernel

__all__ = ["ThymesisFlowAgent", "StealGrant", "AttachPlan", "AgentError"]


class AgentError(RuntimeError):
    """Agent-side configuration failure."""


@dataclass(frozen=True)
class StealGrant:
    """Result of a donor-side steal: where the pinned memory lives."""

    grant_id: int
    pasid: int
    effective_base: int
    size: int


@dataclass
class AttachPlan:
    """Compute-side attachment instructions pushed by the control plane.

    One plan covers a contiguous run of device-internal sections, all
    belonging to one active thymesisflow (one donor + one network id).
    """

    section_indices: List[int]
    donor_effective_base: int
    wire_network_id: int
    channels: List[int]
    numa_node_id: int
    numa_distance: int
    remote_latency_s: float


class ThymesisFlowAgent:
    """One host's configuration daemon."""

    def __init__(
        self,
        hostname: str,
        kernel: LinuxKernel,
        device: ThymesisFlowDevice,
        pasids: PasidRegistry,
        donor_node_id: int = 0,
        memory_scrubber: Optional[Callable[[int, int], None]] = None,
    ):
        self.hostname = hostname
        self.kernel = kernel
        self.device = device
        self.pasids = pasids
        self.donor_node_id = donor_node_id
        #: Zeroes (start, size) of donated physical memory before it is
        #: exposed — a previous tenant's data must never leak to the
        #: borrower.
        self.memory_scrubber = memory_scrubber
        self._grants: Dict[int, tuple] = {}
        self._next_grant = 1
        self._stealer_pasid: Optional[int] = None
        #: Set by lender-crash fault campaigns: a crashed daemon stops
        #: granting memory (existing grants die with the host's links).
        self.crashed = False

    # ------------------------------------------------------------ donor side
    def steal_memory(self, size: int) -> StealGrant:
        """Pin local memory and expose it to the memory-stealing endpoint.

        Rounds the request up to whole sections (the minimum unit of
        disaggregated memory), registers the stealing process's PASID
        with the endpoint hardware, and returns the effective address the
        orchestration layer needs "to calculate the proper offsets to be
        applied by the compute endpoint RMMU".
        """
        if self.crashed:
            raise AgentError(f"{self.hostname}: agent crashed")
        section_bytes = self.kernel.section_bytes
        size = -(-size // section_bytes) * section_bytes
        pinned = self.kernel.pin_contiguous(size, self.donor_node_id)
        if self.memory_scrubber is not None:
            self.memory_scrubber(pinned.start, pinned.size)
        if self.device.memory is None:
            raise AgentError(
                f"{self.hostname}: memory-stealing role not enabled"
            )
        # One memory-stealing daemon per host: every grant is a window
        # pinned under the same process address space (single PASID).
        if self._stealer_pasid is None:
            entry = self.pasids.register(f"{self.hostname}/stealer")
            self._stealer_pasid = entry.pasid
            self.device.memory.set_pasid(entry.pasid)
        self.pasids.add_window(self._stealer_pasid, pinned)
        grant = StealGrant(
            grant_id=self._next_grant,
            pasid=self._stealer_pasid,
            effective_base=pinned.start,
            size=pinned.size,
        )
        self._next_grant += 1
        self._grants[grant.grant_id] = (pinned, self._stealer_pasid)
        return grant

    def release_grant(self, grant: StealGrant) -> None:
        """Undo a steal: unpin the memory and retire the PASID."""
        try:
            pinned, pasid = self._grants.pop(grant.grant_id)
        except KeyError:
            raise AgentError(f"unknown grant {grant.grant_id}") from None
        self.pasids.remove_window(pasid, pinned)
        self.kernel.unpin(pinned)

    # ------------------------------------------------------------ compute side
    def attach_remote_memory(self, plan: AttachPlan) -> int:
        """Physically and logically attach disaggregated memory.

        1. Program the RMMU section entries and the route (MMIO).
        2. ``probe`` the matching real-address range.
        3. Create the CPU-less NUMA node if needed and ``online`` the
           sections into it.

        Returns the bytes attached.
        """
        window = self.device.compute.window
        if window is None:
            raise AgentError(f"{self.hostname}: compute role not attached")
        section_bytes = self.kernel.section_bytes
        if section_bytes != self.device.rmmu.section_bytes:
            raise AgentError(
                "kernel and RMMU disagree on section size: "
                f"{section_bytes} != {self.device.rmmu.section_bytes}"
            )
        # 1. hardware datapath configuration
        base_net = plan.wire_network_id & 0x7FFF
        self.device.program_route(base_net, plan.channels)
        for position, section_index in enumerate(plan.section_indices):
            donor_base = plan.donor_effective_base + position * section_bytes
            self.device.program_section(
                section_index, donor_base, plan.wire_network_id
            )
        # 2. OS probe: the window offset of each section is its device-
        #    internal address; the kernel sees window.start + that.
        first = plan.section_indices[0]
        count = len(plan.section_indices)
        start = window.start + first * section_bytes
        probed = self.kernel.hotplug_probe(start, count * section_bytes)
        # 3. NUMA node + online
        if plan.numa_node_id not in self.kernel.topology:
            distances = {
                node.node_id: plan.numa_distance
                for node in self.kernel.topology.cpu_nodes()
            }
            self.kernel.create_cpuless_node(
                plan.numa_node_id,
                base_latency_s=plan.remote_latency_s,
                distances=distances,
            )
        return self.kernel.hotplug_online(
            [section.index for section in probed], plan.numa_node_id
        )

    def detach_remote_memory(self, plan: AttachPlan) -> int:
        """Reverse of attach: offline, remove, clear RMMU and route."""
        window = self.device.compute.window
        if window is None:
            raise AgentError(f"{self.hostname}: compute role not attached")
        section_bytes = self.kernel.section_bytes
        first = plan.section_indices[0]
        start = window.start + first * section_bytes
        kernel_indices = [
            (start // section_bytes) + i
            for i in range(len(plan.section_indices))
        ]
        removed = self.kernel.hotplug_offline(kernel_indices)
        self.kernel.hotplug_remove(kernel_indices)
        for section_index in plan.section_indices:
            self.device.clear_section(section_index)
        self.device.clear_route(plan.wire_network_id & 0x7FFF)
        return removed
