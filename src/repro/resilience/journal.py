"""Borrower-side write journaling for failover replay.

The paper's failure model (§IV) leaves recovery of borrowed memory to
software: when a lender dies, the borrower's only copy of the remote
bytes is whatever it keeps locally. :class:`WriteJournal` is that copy —
a shadow image plus the merged set of dirty intervals, maintained
*before* each wire write so the journal is never behind the fabric.
:class:`ResilientBuffer` pairs the journal with a
:class:`~repro.testbed.remote_buffer.RemoteBuffer` and knows how to
quarantine (unmap so the dead lender's pages can be force-offlined) and
rebind (remap on the replacement lender and replay the dirty bytes).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..errors import RemoteMemoryError
from ..osmodel.pages import PagePolicy
from ..testbed.remote_buffer import DEFAULT_BATCH_LINES, RemoteBuffer

__all__ = ["WriteJournal", "ResilientBuffer"]


class WriteJournal:
    """Shadow image of every byte written, with dirty-range tracking."""

    def __init__(self, size: int):
        if size < 0:
            raise ValueError(f"negative journal size: {size}")
        self.size = size
        self._image = bytearray(size)
        self._dirty: List[Tuple[int, int]] = []  # merged (start, end)

    def record(self, offset: int, data: bytes) -> None:
        if offset < 0 or offset + len(data) > self.size:
            raise ValueError(
                f"journal write [{offset}, {offset + len(data)}) outside "
                f"{self.size} bytes"
            )
        if not data:
            return
        self._image[offset : offset + len(data)] = data
        self._merge(offset, offset + len(data))

    def _merge(self, start: int, end: int) -> None:
        merged: List[Tuple[int, int]] = []
        placed = False
        for lo, hi in self._dirty:
            if hi < start or lo > end:  # disjoint (touching ranges merge)
                if not placed and lo > end:
                    merged.append((start, end))
                    placed = True
                merged.append((lo, hi))
            else:
                start = min(start, lo)
                end = max(end, hi)
        if not placed:
            merged.append((start, end))
            merged.sort()
        self._dirty = merged

    @property
    def dirty_bytes(self) -> int:
        return sum(end - start for start, end in self._dirty)

    def intervals(self) -> List[Tuple[int, int]]:
        return list(self._dirty)

    def replay_plan(self) -> Iterator[Tuple[int, bytes]]:
        """(offset, bytes) pieces covering exactly the dirty ranges."""
        for start, end in self._dirty:
            yield start, bytes(self._image[start:end])

    def image(self) -> bytes:
        """The full shadow image (clean ranges are zero)."""
        return bytes(self._image)


class ResilientBuffer:
    """A journaled remote buffer that survives lender failure.

    Writes land in the journal first, then go out over the wire; if the
    wire write dies mid-flight (``RemoteMemoryError``), the journal
    still holds the full intent and a later :meth:`rebind` replay makes
    the replacement lender byte-identical.
    """

    def __init__(self, buffer: RemoteBuffer, attachment):
        self.buffer: Optional[RemoteBuffer] = buffer
        self.attachment = attachment
        self.journal = WriteJournal(buffer.size)
        self.replayed_bytes = 0
        self._batch_lines = buffer.batch_lines
        self._batched = buffer.batched

    @classmethod
    def attach_buffer(
        cls,
        testbed,
        attachment,
        size: Optional[int] = None,
        batch_lines: int = DEFAULT_BATCH_LINES,
        batched: bool = True,
    ) -> "ResilientBuffer":
        """Allocate a buffer bound to the attachment's remote node."""
        node = testbed.node(attachment.compute_host)
        buffer = RemoteBuffer.allocate(
            node,
            attachment.size if size is None else size,
            policy=PagePolicy.BIND,
            numa_nodes=[attachment.plan.numa_node_id],
            batch_lines=batch_lines,
            batched=batched,
        )
        return cls(buffer, attachment)

    # -- state --------------------------------------------------------------------
    @property
    def quarantined(self) -> bool:
        return self.buffer is None

    @property
    def size(self) -> int:
        return self.journal.size

    def _live(self) -> RemoteBuffer:
        if self.buffer is None:
            raise RemoteMemoryError(
                "buffer is quarantined awaiting failover",
                code="memory/quarantined",
            )
        return self.buffer

    # -- datapath -----------------------------------------------------------------
    def write(self, offset: int, data: bytes) -> None:
        buffer = self._live()
        self.journal.record(offset, data)
        buffer.write(offset, data)

    def read(self, offset: int, size: int) -> bytes:
        return self._live().read(offset, size)

    # -- failover ------------------------------------------------------------------
    def quarantine(self) -> None:
        """Unmap the dead mapping (keeping the journal).

        Must run before the force-detach: the donor section cannot be
        hot-unplugged while borrower pages still occupy it.
        """
        if self.buffer is not None:
            self.buffer.free()
            self.buffer = None

    def rebind(self, testbed, attachment) -> int:
        """Map onto the replacement lender and replay the journal.

        Returns the number of bytes replayed over the wire.
        """
        node = testbed.node(attachment.compute_host)
        self.buffer = RemoteBuffer.allocate(
            node,
            self.journal.size,
            policy=PagePolicy.BIND,
            numa_nodes=[attachment.plan.numa_node_id],
            batch_lines=self._batch_lines,
            batched=self._batched,
        )
        self.attachment = attachment
        replayed = 0
        for offset, data in self.journal.replay_plan():
            self.buffer.write(offset, data)
            replayed += len(data)
        self.replayed_bytes += replayed
        return replayed
