"""One AC922-class node: bus, DRAM, kernel, PASIDs, ThymesisFlow card.

The real testbed node is a dual-socket POWER9 with 512 GiB of RAM; the
model keeps the structure (bus + DRAM + kernel + optional FPGA card)
with capacities scaled by the caller so simulations stay laptop-sized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..core.device import ThymesisFlowDevice
from ..core.llc import LlcConfig
from ..mem.address import AddressRange, GIB, MIB
from ..mem.dram import DramDevice, DramTiming
from ..opencapi.bus import SystemBus
from ..opencapi.pasid import PasidRegistry
from ..osmodel.agent import ThymesisFlowAgent
from ..osmodel.kernel import LinuxKernel
from ..sim.engine import Simulator
from .calibration import LOCAL_DRAM_BANDWIDTH_BYTES_S, LOCAL_DRAM_LATENCY_S

__all__ = ["NodeSpec", "Ac922Node"]

#: Where firmware places the ThymesisFlow compute window in the real
#: address space (far above any plausible scaled DRAM).
TF_WINDOW_BASE = 0x100_0000_0000


@dataclass(frozen=True)
class NodeSpec:
    """Sizing of one node (defaults are scaled-down AC922 values)."""

    dram_bytes: int = 512 * MIB
    cpu_count: int = 32
    smt_threads: int = 4
    section_bytes: int = 1 * MIB
    page_bytes: int = 64 * 1024
    tf_window_sections: int = 256
    has_fpga: bool = True
    #: §VII projection: ThymesisFlow integrated into the processor SoC —
    #: the host-link serdes crossings disappear (4 fewer per RTT).
    integrated_soc: bool = False

    @property
    def tf_window_bytes(self) -> int:
        return self.tf_window_sections * self.section_bytes


class Ac922Node:
    """A complete host: the unit the control plane composes."""

    def __init__(
        self,
        sim: Simulator,
        hostname: str,
        spec: Optional[NodeSpec] = None,
        llc_config: Optional[LlcConfig] = None,
    ):
        self.sim = sim
        self.hostname = hostname
        self.spec = spec or NodeSpec()

        # Bus + DRAM -------------------------------------------------------------
        self.bus = SystemBus(sim, name=f"{hostname}.bus")
        self.dram = DramDevice(
            sim,
            AddressRange(0x0, self.spec.dram_bytes),
            timing=DramTiming(
                access_latency_s=LOCAL_DRAM_LATENCY_S,
                bandwidth_bytes_per_s=LOCAL_DRAM_BANDWIDTH_BYTES_S,
            ),
            name=f"{hostname}.dram",
        )
        self.bus.attach_dram(self.dram)

        # Kernel -----------------------------------------------------------------
        self.kernel = LinuxKernel(
            hostname,
            section_bytes=self.spec.section_bytes,
            page_bytes=self.spec.page_bytes,
        )
        self.kernel.add_boot_memory(
            0,
            self.dram.window,
            cpu_count=self.spec.cpu_count,
            base_latency_s=LOCAL_DRAM_LATENCY_S,
        )

        # OpenCAPI / ThymesisFlow ----------------------------------------------------
        self.pasids = PasidRegistry()
        self.device: Optional[ThymesisFlowDevice] = None
        self.tf_window: Optional[AddressRange] = None
        self.agent: Optional[ThymesisFlowAgent] = None
        if self.spec.has_fpga:
            self.device = ThymesisFlowDevice(
                sim,
                name=f"{hostname}.tf",
                section_bytes=self.spec.section_bytes,
                llc_config=llc_config,
                host_crossing_s=0.0 if self.spec.integrated_soc else None,
            )
            self.tf_window = AddressRange(
                TF_WINDOW_BASE, self.spec.tf_window_bytes
            )
            self.device.attach_compute(self.bus, self.tf_window)
            self.device.enable_memory_role(self.bus, self.pasids)
            self.agent = ThymesisFlowAgent(
                hostname,
                kernel=self.kernel,
                device=self.device,
                pasids=self.pasids,
                donor_node_id=0,
                memory_scrubber=lambda start, size: self.dram.backing.fill(
                    start, size, 0
                ),
            )
        # NUMA page migration must move content, and content may live
        # behind the ThymesisFlow window — copy through the bus in
        # cacheline units (the only transaction size the datapath moves).
        self.kernel.page_copier = self._copy_page_content
        #: When True, page migration moves content as burst transactions
        #: (one batch per 16-line window); when False it issues the
        #: equivalent concurrent per-line transactions — same timing,
        #: more simulator events.
        self.bulk_transfers = True

    def _copy_page_content(self, source: int, destination: int,
                           size: int) -> None:
        """Synchronous page copy (migration quiesces the page)."""
        from ..mem.address import CACHELINE_BYTES

        window_lines = 16

        def copier():
            offset = 0
            while offset < size:
                chunk = min(window_lines * CACHELINE_BYTES, size - offset)
                if chunk > CACHELINE_BYTES:
                    chunk -= chunk % CACHELINE_BYTES
                lines = chunk // CACHELINE_BYTES
                if lines > 1 and self.bulk_transfers:
                    data = yield self.bus.load_burst(source + offset, lines)
                    yield self.bus.store_burst(destination + offset, data)
                elif lines > 1:
                    loads = [
                        self.bus.load(
                            source + offset + i * CACHELINE_BYTES,
                            CACHELINE_BYTES,
                        )
                        for i in range(lines)
                    ]
                    pieces = []
                    for waitable in loads:
                        pieces.append((yield waitable))
                    stores = [
                        self.bus.store(
                            destination + offset + i * CACHELINE_BYTES,
                            pieces[i],
                        )
                        for i in range(lines)
                    ]
                    for waitable in stores:
                        yield waitable
                else:
                    data = yield self.bus.load(source + offset, chunk)
                    yield self.bus.store(destination + offset, data)
                offset += chunk

        self.sim.run_process(copier())

    # -- observability -----------------------------------------------------------------
    def register_observability(self, registry) -> None:
        """Register this node's whole stack, labelled by hostname."""
        node = self.hostname
        self.bus.register_metrics(registry, node=node)
        self.dram.register_metrics(registry, node=node)
        if self.device is not None:
            self.device.register_metrics(registry, node=node)

    # -- functional memory access (timed) --------------------------------------------
    def load(self, address: int, size: int = 128):
        """Timed load on this node's bus (simulation process)."""
        return self.bus.load(address, size)

    def store(self, address: int, data: bytes):
        return self.bus.store(address, data)

    def run_load(self, address: int, size: int = 128) -> bytes:
        """Convenience: run the simulator until the load completes."""
        return self.sim.run_process(self._one(self.load(address, size)))

    def run_store(self, address: int, data: bytes) -> None:
        self.sim.run_process(self._one(self.store(address, data)))

    @staticmethod
    def _one(process) -> Generator:
        result = yield process
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Ac922Node({self.hostname!r}, dram="
            f"{self.spec.dram_bytes >> 20} MiB, "
            f"fpga={self.spec.has_fpga})"
        )
