"""HBM caching layer at the compute endpoint — paper §VII future work.

"Remote memory access experience can be further improved … by the
introduction of an appropriate caching layer at the hardware-level
(e.g. using HBM intermediate memory as cache)."

The cache sits inside the compute endpoint, in front of the RMMU:

* **reads** that hit serve from on-card HBM at ~tens of ns instead of
  the ~1 µs network round trip;
* **reads** that miss are forwarded remotely and fill the cache;
* **writes** are write-through with allocate — the donor copy stays
  authoritative (the stealing host may reclaim memory at detach time),
  so victims are always clean and eviction costs nothing on the wire.

The cache is *functional*: it stores real line data, so every
correctness test exercises it end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..mem.address import CACHELINE_BYTES, MIB
from ..mem.cache import CacheConfig, SetAssociativeCache

__all__ = ["HbmCacheConfig", "HbmCache"]


@dataclass(frozen=True)
class HbmCacheConfig:
    """Geometry + timing of the on-card HBM cache."""

    size_bytes: int = 64 * MIB
    ways: int = 8
    hit_latency_s: float = 30e-9  #: HBM2 access through the FPGA stack

    def __post_init__(self):
        lines = self.size_bytes // CACHELINE_BYTES
        if lines < self.ways or lines % self.ways:
            raise ValueError(
                f"invalid HBM geometry: {lines} lines / {self.ways} ways"
            )


class HbmCache:
    """Functional line cache over device-internal addresses."""

    def __init__(self, config: Optional[HbmCacheConfig] = None,
                 name: str = "hbm"):
        self.config = config or HbmCacheConfig()
        self.name = name
        self._tags = SetAssociativeCache(
            CacheConfig(
                name=f"{name}.tags",
                size_bytes=self.config.size_bytes,
                ways=self.config.ways,
                line_bytes=CACHELINE_BYTES,
                hit_latency_s=self.config.hit_latency_s,
            )
        )
        self._data: Dict[int, bytes] = {}
        self.read_hits = 0
        self.read_misses = 0

    @staticmethod
    def _line(address: int) -> int:
        return (address // CACHELINE_BYTES) * CACHELINE_BYTES

    # -- read path ----------------------------------------------------------------
    def lookup(self, address: int, size: int) -> Optional[bytes]:
        """Return cached data covering the access, or None on miss.

        Only whole-line, line-aligned accesses are cacheable (exactly
        what the POWER9 ld/st datapath emits); anything else bypasses.
        """
        line = self._line(address)
        if address != line or size != CACHELINE_BYTES:
            return None
        if line in self._data:
            # Touch for LRU bookkeeping; a present line always hits.
            self._tags.access(line)
            self.read_hits += 1
            return self._data[line]
        self.read_misses += 1
        return None

    def fill(self, address: int, data: bytes) -> None:
        """Install a line after a remote read completed."""
        line = self._line(address)
        if address != line or len(data) != CACHELINE_BYTES:
            return
        _hit, victim = self._tags.access_detailed(line)
        if victim is not None:
            # Write-through policy: victims are clean; just drop them.
            self._data.pop(victim, None)
        self._data[line] = data

    # -- write path ------------------------------------------------------------------
    def write_through(self, address: int, data: bytes) -> None:
        """Update the cached copy (allocate on write); donor still written."""
        line = self._line(address)
        if address != line or len(data) != CACHELINE_BYTES:
            # Partial-line writes just invalidate to stay coherent.
            self._data.pop(line, None)
            self._tags.invalidate(line)
            return
        _hit, victim = self._tags.access_detailed(line, write=True)
        if victim is not None:
            self._data.pop(victim, None)
        self._data[line] = data

    # -- management -------------------------------------------------------------------
    def invalidate_range(self, start: int, size: int) -> int:
        """Drop all lines in a detached section; returns lines dropped."""
        dropped = 0
        line = self._line(start)
        end = start + size
        while line < end:
            if self._data.pop(line, None) is not None:
                self._tags.invalidate(line)
                dropped += 1
            line += CACHELINE_BYTES
        return dropped

    @property
    def resident_lines(self) -> int:
        return len(self._data)

    @property
    def hit_ratio(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0
