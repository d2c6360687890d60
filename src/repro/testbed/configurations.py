"""The five experimental memory configurations — paper §VI-A, Fig. 4.

Each configuration is summarized as an :class:`AccessEnvironment`: the
memory-system parameters an application model needs to predict its
performance (remote fraction and latency, bandwidth ceilings, CPU and
instance counts, network synchronization costs). This is the single
place where the §VI-A semantics live:

* **local** — all memory on the application server's node.
* **single-disaggregated** — all memory stolen from the neighbour over
  one 100 Gb/s channel.
* **bonding-disaggregated** — as above over both channels (200 Gb/s),
  but the effective memory bandwidth is capped by the OpenCAPI C1
  128 B-transaction ceiling (≈16 GiB/s), not 2× the single channel.
* **interleaved** — pages round-robined 50/50 across local + remote.
* **scale-out** — the application is scaled across both servers with
  local memory only; it gains 2× CPU but pays network synchronization
  (the paper notes disaggregated configs use *half* the CPUs of
  scale-out).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from ..mem.address import GIB
from .calibration import (
    CHANNEL_THEORETICAL_MAX_BYTES_S,
    LOCAL_DRAM_BANDWIDTH_BYTES_S,
    LOCAL_DRAM_LATENCY_S,
    OPENCAPI_C1_128B_CEILING_BYTES_S,
    PROTOTYPE_RTT_S,
)
from .prototype import EthernetSpec

__all__ = ["MemoryConfigKind", "AccessEnvironment", "make_environment"]

#: Effective per-access latency penalty of round-robin channel bonding,
#: calibrated to the measured single-vs-bonding gaps of Figs. 7 and 8.
#: Mechanism: each channel delivers frames strictly in order, so a
#: transaction sprayed onto one channel waits behind that channel's
#: unrelated frames, and with traffic halved per channel frames fill
#: (and flush) more slowly; responses also complete out of order and
#: must be matched. Bonding therefore buys bandwidth (Fig. 5) at the
#: cost of unloaded latency.
BONDING_LATENCY_PENALTY = 1.35


class MemoryConfigKind(enum.Enum):
    LOCAL = "local"
    SINGLE_DISAGGREGATED = "single-disaggregated"
    BONDING_DISAGGREGATED = "bonding-disaggregated"
    INTERLEAVED = "interleaved"
    SCALE_OUT = "scale-out"


@dataclass(frozen=True)
class AccessEnvironment:
    """Memory-system view an application sees under one configuration."""

    kind: MemoryConfigKind
    #: Fraction of LLC misses served by disaggregated memory.
    remote_fraction: float
    #: Unloaded latency of one remote access (RTT of the datapath).
    remote_latency_s: float
    #: Aggregate bandwidth toward disaggregated memory.
    remote_bandwidth_bytes_s: float
    #: Local DRAM parameters.
    local_latency_s: float
    local_bandwidth_bytes_s: float
    #: CPU cores available to one application instance.
    cores_per_instance: int
    #: Number of cooperating application instances (2 for scale-out).
    instances: int
    #: One-way latency of an inter-instance network message (scale-out).
    sync_latency_s: float
    #: One-way latency client → application server.
    client_latency_s: float

    @property
    def total_cores(self) -> int:
        return self.cores_per_instance * self.instances

    @property
    def uses_thymesisflow(self) -> bool:
        return self.remote_fraction > 0.0

    def average_miss_latency(self) -> float:
        """Mean LLC-miss service latency under the NUMA split."""
        return (
            (1.0 - self.remote_fraction) * self.local_latency_s
            + self.remote_fraction * self.remote_latency_s
        )


def make_environment(
    kind: MemoryConfigKind,
    cores_per_node: int = 32,
    ethernet: Optional[EthernetSpec] = None,
    remote_rtt_s: float = PROTOTYPE_RTT_S,
) -> AccessEnvironment:
    """Build the §VI-A environment for one configuration."""
    ethernet = ethernet or EthernetSpec()
    client = ethernet.hop_latency_s
    base = dict(
        local_latency_s=LOCAL_DRAM_LATENCY_S,
        local_bandwidth_bytes_s=LOCAL_DRAM_BANDWIDTH_BYTES_S,
        cores_per_instance=cores_per_node,
        instances=1,
        sync_latency_s=0.0,
        client_latency_s=client,
    )
    if kind is MemoryConfigKind.LOCAL:
        return AccessEnvironment(
            kind=kind,
            remote_fraction=0.0,
            remote_latency_s=0.0,
            remote_bandwidth_bytes_s=0.0,
            **base,
        )
    if kind is MemoryConfigKind.SINGLE_DISAGGREGATED:
        return AccessEnvironment(
            kind=kind,
            remote_fraction=1.0,
            remote_latency_s=remote_rtt_s,
            remote_bandwidth_bytes_s=CHANNEL_THEORETICAL_MAX_BYTES_S,
            **base,
        )
    if kind is MemoryConfigKind.BONDING_DISAGGREGATED:
        # Two channels = 25 GiB/s of wire, but the C1 128 B-transaction
        # ceiling caps useful memory bandwidth at ~16 GiB/s (§VI-C).
        # Round-robin spraying lets responses complete out of order, so
        # unloaded per-access latency is slightly *worse* than a single
        # channel — visible in Figs. 7–9 where bonding trails single for
        # latency-bound workloads while winning on bandwidth (Fig. 5).
        return AccessEnvironment(
            kind=kind,
            remote_fraction=1.0,
            remote_latency_s=remote_rtt_s * BONDING_LATENCY_PENALTY,
            remote_bandwidth_bytes_s=min(
                2 * CHANNEL_THEORETICAL_MAX_BYTES_S,
                OPENCAPI_C1_128B_CEILING_BYTES_S,
            ),
            **base,
        )
    if kind is MemoryConfigKind.INTERLEAVED:
        return AccessEnvironment(
            kind=kind,
            remote_fraction=0.5,
            remote_latency_s=remote_rtt_s,
            remote_bandwidth_bytes_s=CHANNEL_THEORETICAL_MAX_BYTES_S,
            **base,
        )
    if kind is MemoryConfigKind.SCALE_OUT:
        environment = dict(base)
        environment["instances"] = 2
        environment["sync_latency_s"] = ethernet.hop_latency_s
        return AccessEnvironment(
            kind=kind,
            remote_fraction=0.0,
            remote_latency_s=0.0,
            remote_bandwidth_bytes_s=0.0,
            **environment,
        )
    raise ValueError(f"unknown configuration {kind!r}")


def all_environments(
    cores_per_node: int = 32,
    ethernet: Optional[EthernetSpec] = None,
) -> Dict[MemoryConfigKind, AccessEnvironment]:
    """All five §VI-A environments keyed by kind."""
    return {
        kind: make_environment(kind, cores_per_node, ethernet)
        for kind in MemoryConfigKind
    }
