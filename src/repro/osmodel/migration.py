"""Automatic NUMA balancing (page migration).

"Thanks to this support, the kernel can optimize the access to
frequently used memory areas by reusing existing NUMA page migration
algorithms that move pages from distant to closer (including local)
memory nodes" (§IV-B, citing Van Riel's Automatic NUMA Balancing).

The model follows the AutoNUMA shape: accesses are *sampled*; per page
we keep an exponential moving count per accessing CPU node; a balancing
pass migrates pages whose dominant accessor is strictly closer than the
page's current node, subject to capacity on the target and a migration
budget per pass (rate limiting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .kernel import LinuxKernel, Mapping

__all__ = ["NumaBalancer", "MigrationStats"]


@dataclass
class MigrationStats:
    """Outcome of balancing passes."""

    samples: int = 0
    migrations: int = 0
    refused_capacity: int = 0
    refused_distance: int = 0


class NumaBalancer:
    """Sampled access tracking + distance-driven page migration."""

    def __init__(
        self,
        kernel: LinuxKernel,
        sample_period: int = 16,
        decay: float = 0.5,
        min_samples: int = 4,
    ):
        if sample_period < 1:
            raise ValueError(f"sample_period must be >= 1: {sample_period}")
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1): {decay}")
        self.kernel = kernel
        self.sample_period = sample_period
        self.decay = decay
        self.min_samples = min_samples
        self.stats = MigrationStats()
        # (mapping_id, page_index) -> {cpu_node: weighted access count}
        self._heat: Dict[Tuple[int, int], Dict[int, float]] = {}
        self._access_counter = 0

    # -- access sampling ---------------------------------------------------------------
    def record_access(
        self, mapping: Mapping, page_index: int, cpu_node: int
    ) -> None:
        """Note one access; only every ``sample_period``-th is sampled.

        Mirrors the kernel's NUMA hinting faults, which observe a small
        fraction of accesses rather than all of them.
        """
        self._access_counter += 1
        if self._access_counter % self.sample_period:
            return
        self.stats.samples += 1
        key = (mapping.mapping_id, page_index)
        heat = self._heat.setdefault(key, {})
        heat[cpu_node] = heat.get(cpu_node, 0.0) + 1.0

    # -- balancing pass ----------------------------------------------------------------
    def balance(
        self, mapping: Mapping, max_migrations: Optional[int] = None
    ) -> int:
        """One balancing pass over ``mapping``; returns pages migrated."""
        migrated = 0
        topology = self.kernel.topology
        for page_index, page in enumerate(mapping.pages):
            if max_migrations is not None and migrated >= max_migrations:
                break
            key = (mapping.mapping_id, page_index)
            heat = self._heat.get(key)
            if not heat or sum(heat.values()) < self.min_samples:
                continue
            dominant = max(heat, key=lambda node: heat[node])
            if dominant == page.node_id:
                continue
            current_distance = topology.distance(dominant, page.node_id)
            target_distance = topology.distance(dominant, dominant)
            if target_distance >= current_distance:
                self.stats.refused_distance += 1
                continue
            if self.kernel.migrate_page(mapping, page_index, dominant):
                migrated += 1
                self.stats.migrations += 1
                self._heat.pop(key, None)
            else:
                self.stats.refused_capacity += 1
        self._decay_heat()
        return migrated

    def _decay_heat(self) -> None:
        for heat in self._heat.values():
            for node in list(heat):
                heat[node] *= self.decay
                if heat[node] < 1e-3:
                    del heat[node]
