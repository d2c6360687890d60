"""Sparse byte-level backing store for simulated DRAM.

The reproduction is *functional*: a load really returns the bytes the
last store wrote, across the whole disaggregated datapath. To keep a
512 GiB address space representable on a laptop, storage is sparse —
fixed-size chunks are materialized on first write, and reads of
untouched memory return zeros (matching freshly-onlined RAM).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .address import AddressError, AddressRange

__all__ = ["BackingStore"]


class BackingStore:
    """Sparse, chunked byte store over an address window.

    ``chunk_bytes`` trades dictionary overhead against allocation
    granularity; 64 KiB is a good default for cacheline-grained traffic.
    """

    def __init__(
        self,
        window: AddressRange,
        chunk_bytes: int = 64 * 1024,
        name: str = "dram",
    ):
        if chunk_bytes <= 0 or (chunk_bytes & (chunk_bytes - 1)) != 0:
            raise AddressError(
                f"chunk_bytes must be a power of two: {chunk_bytes}"
            )
        self.window = window
        self.chunk_bytes = chunk_bytes
        self.name = name
        self._chunks: Dict[int, np.ndarray] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    # -- core accessors ---------------------------------------------------------
    def write(self, address: int, data: bytes) -> None:
        """Store ``data`` at ``address`` (may straddle chunks)."""
        size = len(data)
        self._check(address, size)
        if size == 0:
            return
        chunk_bytes = self.chunk_bytes
        chunk_index, chunk_offset = divmod(address, chunk_bytes)
        if chunk_offset + size <= chunk_bytes:
            # Fast path: the write lands in a single chunk — assign the
            # bytes straight through the array's memoryview, no
            # np.frombuffer copy.
            chunk = self._chunks.get(chunk_index)
            if chunk is None:
                chunk = np.zeros(chunk_bytes, dtype=np.uint8)
                self._chunks[chunk_index] = chunk
            memoryview(chunk)[chunk_offset : chunk_offset + size] = data
            self.bytes_written += size
            return
        view = memoryview(data)
        cursor = address
        remaining = size
        offset = 0
        while remaining > 0:
            chunk_index, chunk_offset = divmod(cursor, chunk_bytes)
            span = min(remaining, chunk_bytes - chunk_offset)
            chunk = self._chunks.get(chunk_index)
            if chunk is None:
                chunk = np.zeros(chunk_bytes, dtype=np.uint8)
                self._chunks[chunk_index] = chunk
            memoryview(chunk)[chunk_offset : chunk_offset + span] = view[
                offset : offset + span
            ]
            cursor += span
            offset += span
            remaining -= span
        self.bytes_written += size

    def read(self, address: int, size: int) -> bytes:
        """Load ``size`` bytes; untouched memory reads as zeros."""
        self._check(address, size)
        chunk_bytes = self.chunk_bytes
        chunk_index, chunk_offset = divmod(address, chunk_bytes)
        if chunk_offset + size <= chunk_bytes:
            # Fast path: single-chunk read — slice and serialize without
            # the intermediate zero array.
            self.bytes_read += size
            chunk = self._chunks.get(chunk_index)
            if chunk is None:
                return bytes(size)
            return chunk[chunk_offset : chunk_offset + size].tobytes()
        # Straddling read: assemble into the result buffer directly (a
        # zero-initialized bytearray) instead of a numpy scratch array
        # plus a tobytes copy.
        out = bytearray(size)
        out_view = memoryview(out)
        cursor = address
        remaining = size
        offset = 0
        while remaining > 0:
            chunk_index, chunk_offset = divmod(cursor, chunk_bytes)
            span = min(remaining, chunk_bytes - chunk_offset)
            chunk = self._chunks.get(chunk_index)
            if chunk is not None:
                out_view[offset : offset + span] = memoryview(chunk)[
                    chunk_offset : chunk_offset + span
                ]
            cursor += span
            offset += span
            remaining -= span
        self.bytes_read += size
        out_view.release()
        return bytes(out)

    def read_view(self, address: int, size: int) -> memoryview:
        """Zero-copy read of a range that fits one materialized chunk.

        Returns a read-only view aliasing the live chunk — a later
        ``write`` to the same range changes what the view observes, so
        callers must consume (or copy) it before yielding control.
        Falls back to a view over a fresh ``read`` when the range
        straddles chunks or touches unmaterialized memory.
        """
        self._check(address, size)
        chunk_index, chunk_offset = divmod(address, self.chunk_bytes)
        if chunk_offset + size <= self.chunk_bytes:
            chunk = self._chunks.get(chunk_index)
            if chunk is not None:
                self.bytes_read += size
                return memoryview(chunk).toreadonly()[
                    chunk_offset : chunk_offset + size
                ]
        return memoryview(self.read(address, size))

    def fill(self, address: int, size: int, value: int = 0) -> None:
        """memset-style fill (used for zeroing donated sections)."""
        self._check(address, size)
        if not 0 <= value <= 255:
            raise AddressError(f"fill value must be a byte: {value}")
        cursor = address
        remaining = size
        while remaining > 0:
            chunk_index, chunk_offset = divmod(cursor, self.chunk_bytes)
            span = min(remaining, self.chunk_bytes - chunk_offset)
            if value == 0 and chunk_index not in self._chunks:
                pass  # zero-fill of unmaterialized memory is a no-op
            else:
                chunk = self._chunks.get(chunk_index)
                if chunk is None:
                    chunk = np.zeros(self.chunk_bytes, dtype=np.uint8)
                    self._chunks[chunk_index] = chunk
                chunk[chunk_offset : chunk_offset + span] = value
            cursor += span
            remaining -= span

    def copy_range(
        self,
        source: int,
        destination: int,
        size: int,
        other: Optional["BackingStore"] = None,
    ) -> None:
        """Copy bytes, possibly across stores (page-migration support)."""
        target = other if other is not None else self
        if target is not self:
            # Cross-store copy consumes the view immediately, so the
            # zero-copy chunk alias is safe and skips the bytes round
            # trip entirely on single-chunk ranges.
            target.write(destination, self.read_view(source, size))
            return
        target.write(destination, self.read(source, size))

    # -- introspection ------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """Host memory actually materialized by the sparse store."""
        return len(self._chunks) * self.chunk_bytes

    def discard(self, address: int, size: int) -> None:
        """Drop whole chunks fully inside the range (hot-unplug teardown)."""
        self._check(address, size)
        first_full = -(-address // self.chunk_bytes)
        last_full = (address + size) // self.chunk_bytes
        for chunk_index in range(first_full, last_full):
            self._chunks.pop(chunk_index, None)

    def _check(self, address: int, size: int) -> None:
        if size < 0:
            raise AddressError(f"negative size: {size}")
        if size == 0:
            return
        if not self.window.contains_span(address, size):
            raise AddressError(
                f"{self.name}: access [{address:#x}, {address + size:#x}) "
                f"outside window [{self.window.start:#x}, "
                f"{self.window.end:#x})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BackingStore({self.name!r}, resident="
            f"{self.resident_bytes // 1024} KiB)"
        )
