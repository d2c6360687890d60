"""CPU cache models: a functional set-associative simulator and an
analytic average-memory-access-time (AMAT) model.

The functional simulator is used by unit/property tests and by the
microbenchmark path (STREAM streams real address traces through it);
the analytic model feeds the CPI stacks behind figures 6–9, where
simulating every instruction would be intractable.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .address import CACHELINE_BYTES

__all__ = [
    "CacheConfig",
    "SetAssociativeCache",
    "CacheHierarchy",
    "AccessProfile",
    "AmatModel",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = CACHELINE_BYTES
    hit_latency_s: float = 1e-9

    def __post_init__(self):
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError(f"invalid geometry for {self.name}")
        lines = self.size_bytes // self.line_bytes
        if lines % self.ways != 0:
            raise ValueError(
                f"{self.name}: {lines} lines not divisible by {self.ways} ways"
            )

    @property
    def sets(self) -> int:
        return (self.size_bytes // self.line_bytes) // self.ways


class SetAssociativeCache:
    """LRU set-associative cache over line addresses (functional only).

    ``access`` returns True on hit. Writes use write-allocate;
    write-back state is tracked so eviction statistics distinguish clean
    from dirty victims.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        # One ordered dict per set: tag -> dirty flag; order = LRU order.
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(config.sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.config.line_bytes
        return line % self.config.sets, line // self.config.sets

    def access(self, address: int, write: bool = False) -> bool:
        """Touch the line containing ``address``; True on hit."""
        hit, _victim = self.access_detailed(address, write=write)
        return hit

    def access_detailed(
        self, address: int, write: bool = False
    ) -> Tuple[bool, Optional[int]]:
        """Like :meth:`access`, also reporting the evicted line address.

        Returns ``(hit, victim_line_address)`` where the victim is None
        unless this access evicted a line. Needed by functional caches
        (e.g. the HBM layer) that must write victims' *data* back.
        """
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
            self.hits += 1
            dirty = ways.pop(tag) or write
            ways[tag] = dirty
            return True, None
        self.misses += 1
        victim_address: Optional[int] = None
        if len(ways) >= self.config.ways:
            victim_tag, victim_dirty = ways.popitem(last=False)
            self.evictions += 1
            if victim_dirty:
                self.dirty_evictions += 1
            victim_line = victim_tag * self.config.sets + set_index
            victim_address = victim_line * self.config.line_bytes
        ways[tag] = write
        return False, victim_address

    def invalidate(self, address: int) -> bool:
        """Drop a line if present (hot-unplug / migration support)."""
        set_index, tag = self._locate(address)
        return self._sets[set_index].pop(tag, None) is not None

    def flush(self) -> int:
        """Empty the cache; returns the number of dirty lines flushed."""
        dirty = 0
        for ways in self._sets:
            dirty += sum(1 for flag in ways.values() if flag)
            ways.clear()
        return dirty

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)


class CacheHierarchy:
    """A stack of inclusive cache levels in front of memory.

    ``access`` walks L1→L2→…; the return value is the index of the level
    that hit (len(levels) means it went to memory), which maps directly
    to a latency via the level configs.
    """

    def __init__(self, levels: Sequence[CacheConfig]):
        if not levels:
            raise ValueError("need at least one cache level")
        self.levels = [SetAssociativeCache(config) for config in levels]

    def access(self, address: int, write: bool = False) -> int:
        for index, level in enumerate(self.levels):
            if level.access(address, write=write):
                return index
        return len(self.levels)

    def hit_latency(self, level_index: int, memory_latency_s: float) -> float:
        """Latency of a hit at ``level_index`` (== len(levels) → memory)."""
        total = 0.0
        for index, level in enumerate(self.levels):
            total += level.config.hit_latency_s
            if index == level_index:
                return total
        return total + memory_latency_s

    def flush(self) -> int:
        return sum(level.flush() for level in self.levels)


#: Default POWER9-like three-level hierarchy (per-core slices simplified).
def power9_hierarchy() -> CacheHierarchy:
    return CacheHierarchy(
        [
            CacheConfig("L1d", 32 * 1024, ways=8, hit_latency_s=1.0e-9),
            CacheConfig("L2", 512 * 1024, ways=8, hit_latency_s=4.0e-9),
            CacheConfig("L3", 10 * 1024 * 1024, ways=20, hit_latency_s=12.0e-9),
        ]
    )


@dataclass
class AccessProfile:
    """Analytic description of a workload's memory behaviour.

    This is the application-level interface to the memory system: rather
    than a full address trace, an app model states how often its
    instruction stream touches memory and how well it caches.

    * ``memory_instruction_fraction`` — loads+stores per instruction.
    * ``llc_miss_ratio`` — fraction of memory instructions missing the
      last-level cache (these are the ones exposed to NUMA/remote
      latency).
    * ``write_fraction`` — stores / (loads + stores); writes to remote
      memory post rather than stall, captured via ``write_stall_factor``.
    * ``remote_fraction`` — fraction of LLC misses served by
      disaggregated memory (0 for local; 0.5 for 50/50 interleave; 1.0
      for fully-remote).
    """

    memory_instruction_fraction: float = 0.3
    llc_miss_ratio: float = 0.02
    write_fraction: float = 0.3
    remote_fraction: float = 0.0
    write_stall_factor: float = 0.3

    def __post_init__(self):
        for label, value in (
            ("memory_instruction_fraction", self.memory_instruction_fraction),
            ("llc_miss_ratio", self.llc_miss_ratio),
            ("write_fraction", self.write_fraction),
            ("remote_fraction", self.remote_fraction),
            ("write_stall_factor", self.write_stall_factor),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")

    def with_remote_fraction(self, remote_fraction: float) -> "AccessProfile":
        return AccessProfile(
            self.memory_instruction_fraction,
            self.llc_miss_ratio,
            self.write_fraction,
            remote_fraction,
            self.write_stall_factor,
        )


class AmatModel:
    """Average memory access time from hit latencies + miss ratios.

    Exposes ``miss_penalty`` — the average cost of an LLC miss given a
    local/remote latency split — which is the quantity the CPI stack in
    :mod:`repro.perf` consumes.
    """

    def __init__(
        self,
        llc_hit_latency_s: float = 12e-9,
        local_memory_latency_s: float = 85e-9,
    ):
        self.llc_hit_latency_s = llc_hit_latency_s
        self.local_memory_latency_s = local_memory_latency_s

    def miss_penalty(
        self, profile: AccessProfile, remote_latency_s: float
    ) -> float:
        """Mean latency of an LLC miss under the profile's NUMA split."""
        local = (1.0 - profile.remote_fraction) * self.local_memory_latency_s
        remote = profile.remote_fraction * remote_latency_s
        return local + remote

    def amat(self, profile: AccessProfile, remote_latency_s: float) -> float:
        """Average latency of one memory *instruction*."""
        miss = self.miss_penalty(profile, remote_latency_s)
        return (
            self.llc_hit_latency_s
            + profile.llc_miss_ratio * miss
        )
