"""Address arithmetic: ranges, alignment, and window allocation.

Terminology follows the paper (§IV-A1):

* **effective address** — what an application/device emits (post-MMU on
  the CPU side this is the *real* address; we keep the paper's wording).
* **real address** — the host physical address space; the POWER9
  firmware assigns a *window* of it to the ThymesisFlow compute endpoint.
* **device-internal address** — the compute endpoint sees transactions
  re-based to zero ("Device Internal Address Space is always starting
  from address 0x0").

The constants below are the units the whole stack agrees on: 128-byte
cachelines (the POWER9 ld/st transaction size) and sparse-memory sections
as the minimum unit of disaggregated memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..errors import ReproError

__all__ = [
    "CACHELINE_BYTES",
    "DEFAULT_SECTION_BYTES",
    "KIB",
    "MIB",
    "GIB",
    "AddressRange",
    "AddressSpaceAllocator",
    "AddressError",
]

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: POWER9 cache line size; every OpenCAPI ld/st transaction carries 128 B.
CACHELINE_BYTES = 128

#: Linux sparse-memory section size used as the minimum hotpluggable unit.
#: ppc64 uses 256 MiB memory blocks; experiments may scale this down.
DEFAULT_SECTION_BYTES = 256 * MIB


class AddressError(ReproError, ValueError):
    """Raised for invalid address arithmetic or exhausted windows."""

    code = "mem/address"


def _check_alignment(value: int, alignment: int, what: str) -> None:
    if alignment and value % alignment != 0:
        raise AddressError(f"{what} {value:#x} not {alignment}-byte aligned")


@dataclass(frozen=True)
class AddressRange:
    """A half-open byte range ``[start, start + size)``."""

    start: int
    size: int

    def __post_init__(self):
        if self.start < 0:
            raise AddressError(f"negative start: {self.start:#x}")
        if self.size <= 0:
            raise AddressError(f"non-positive size: {self.size}")

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.start + self.size

    @property
    def last(self) -> int:
        return self.end - 1

    def contains(self, address: int) -> bool:
        return self.start <= address < self.start + self.size

    def contains_range(self, other: "AddressRange") -> bool:
        return self.start <= other.start and other.end <= self.end

    def contains_span(self, start: int, size: int) -> bool:
        """``contains_range(AddressRange(start, size))`` on plain ints.

        The per-access checks use this to skip building a range object;
        a span the constructor would reject raises the same
        :class:`AddressError`.
        """
        if start < 0 or size <= 0:
            AddressRange(start, size)
        return self.start <= start and start + size <= self.start + self.size

    def overlaps(self, other: "AddressRange") -> bool:
        return self.start < other.end and other.start < self.end

    def offset_of(self, address: int) -> int:
        """Offset of ``address`` within the range."""
        if not self.contains(address):
            raise AddressError(
                f"address {address:#x} outside range "
                f"[{self.start:#x}, {self.end:#x})"
            )
        return address - self.start

    def translate(self, address: int, target_base: int) -> int:
        """Re-base ``address`` from this range onto ``target_base``."""
        return target_base + self.offset_of(address)

    def subrange(self, offset: int, size: int) -> "AddressRange":
        sub = AddressRange(self.start + offset, size)
        if not self.contains_range(sub):
            raise AddressError(
                f"subrange(+{offset:#x}, {size:#x}) escapes "
                f"[{self.start:#x}, {self.end:#x})"
            )
        return sub

    def split(self, chunk_size: int) -> List["AddressRange"]:
        """Split into chunk_size pieces; size must divide evenly."""
        if self.size % chunk_size != 0:
            raise AddressError(
                f"size {self.size:#x} not a multiple of {chunk_size:#x}"
            )
        return [
            AddressRange(self.start + i * chunk_size, chunk_size)
            for i in range(self.size // chunk_size)
        ]

    def cachelines(self) -> Iterator[int]:
        """Iterate the cacheline-aligned addresses covering the range."""
        first = (self.start // CACHELINE_BYTES) * CACHELINE_BYTES
        address = first
        while address < self.end:
            yield address
            address += CACHELINE_BYTES

    def __repr__(self) -> str:
        return f"AddressRange({self.start:#x}, size={self.size:#x})"


class AddressSpaceAllocator:
    """First-fit allocator of aligned sub-ranges within a window.

    Models both firmware assignment of real-address windows to OpenCAPI
    devices and the memory-stealing side's reservation of donor ranges.
    Frees coalesce with adjacent free blocks so long-running control
    planes do not fragment unboundedly.
    """

    def __init__(self, window: AddressRange, name: str = "aspace"):
        self.window = window
        self.name = name
        self._free: List[AddressRange] = [window]
        self._allocated: List[AddressRange] = []

    @property
    def free_bytes(self) -> int:
        return sum(r.size for r in self._free)

    @property
    def allocated_bytes(self) -> int:
        return sum(r.size for r in self._allocated)

    def allocate(self, size: int, alignment: int = CACHELINE_BYTES) -> AddressRange:
        """First-fit allocation of ``size`` bytes at ``alignment``."""
        if size <= 0:
            raise AddressError(f"allocation size must be > 0: {size}")
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise AddressError(f"alignment must be a power of two: {alignment}")
        for index, block in enumerate(self._free):
            aligned_start = -(-block.start // alignment) * alignment
            waste = aligned_start - block.start
            if block.size - waste < size:
                continue
            chosen = AddressRange(aligned_start, size)
            self._carve(index, block, chosen)
            self._allocated.append(chosen)
            return chosen
        raise AddressError(
            f"{self.name}: cannot allocate {size:#x} bytes "
            f"(free={self.free_bytes:#x}, fragmented into {len(self._free)})"
        )

    def allocate_at(self, start: int, size: int) -> AddressRange:
        """Allocate an explicit range (used when firmware dictates it)."""
        wanted = AddressRange(start, size)
        for index, block in enumerate(self._free):
            if block.contains_range(wanted):
                self._carve(index, block, wanted)
                self._allocated.append(wanted)
                return wanted
        raise AddressError(
            f"{self.name}: range [{start:#x}, {start + size:#x}) not free"
        )

    def free(self, allocation: AddressRange) -> None:
        try:
            self._allocated.remove(allocation)
        except ValueError:
            raise AddressError(
                f"{self.name}: {allocation!r} was not allocated here"
            ) from None
        self._insert_free(allocation)

    # -- internals -------------------------------------------------------------
    def _carve(self, index: int, block: AddressRange, chosen: AddressRange) -> None:
        del self._free[index]
        if chosen.start > block.start:
            self._free.insert(
                index, AddressRange(block.start, chosen.start - block.start)
            )
            index += 1
        if chosen.end < block.end:
            self._free.insert(index, AddressRange(chosen.end, block.end - chosen.end))

    def _insert_free(self, released: AddressRange) -> None:
        # Insert sorted by start, then coalesce neighbours.
        position = 0
        while position < len(self._free) and self._free[position].start < released.start:
            position += 1
        self._free.insert(position, released)
        merged: List[AddressRange] = []
        for block in self._free:
            if merged and merged[-1].end == block.start:
                merged[-1] = AddressRange(
                    merged[-1].start, merged[-1].size + block.size
                )
            else:
                merged.append(block)
        self._free = merged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AddressSpaceAllocator({self.name!r}, "
            f"free={self.free_bytes:#x}/{self.window.size:#x})"
        )
