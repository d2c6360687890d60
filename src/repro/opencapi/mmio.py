"""MMIO configuration space for OpenCAPI devices.

The ThymesisFlow configuration space "is exposed to the Linux operating
system as a memory mapped I/O (MMIO) area, using the OpenCAPI generic
device driver" (§IV-B). The user-space agent pokes these registers to
program the RMMU section table and channel configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

__all__ = ["MmioRegister", "MmioRegisterFile", "MmioError"]

REGISTER_BYTES = 8
_REGISTER_MASK = (1 << (REGISTER_BYTES * 8)) - 1


class MmioError(RuntimeError):
    """Bad MMIO access: unknown offset, misalignment, or readonly write."""


@dataclass
class MmioRegister:
    """One 64-bit register: a name, a value, and optional side effects."""

    name: str
    offset: int
    value: int = 0
    readonly: bool = False
    on_write: Optional[Callable[[int], None]] = None
    on_read: Optional[Callable[[], int]] = None


class MmioRegisterFile:
    """A register map addressed by byte offset (8-byte aligned)."""

    def __init__(self, name: str = "mmio"):
        self.name = name
        self._by_offset: Dict[int, MmioRegister] = {}
        self._by_name: Dict[str, MmioRegister] = {}

    def define(
        self,
        name: str,
        offset: int,
        initial: int = 0,
        readonly: bool = False,
        on_write: Optional[Callable[[int], None]] = None,
        on_read: Optional[Callable[[], int]] = None,
    ) -> MmioRegister:
        if offset % REGISTER_BYTES != 0:
            raise MmioError(f"offset {offset:#x} not 8-byte aligned")
        if offset in self._by_offset:
            raise MmioError(f"offset {offset:#x} already defined")
        if name in self._by_name:
            raise MmioError(f"register {name!r} already defined")
        register = MmioRegister(
            name=name,
            offset=offset,
            value=initial & _REGISTER_MASK,
            readonly=readonly,
            on_write=on_write,
            on_read=on_read,
        )
        self._by_offset[offset] = register
        self._by_name[name] = register
        return register

    # -- offset-based access (what the generic driver does) ---------------------
    def read(self, offset: int) -> int:
        register = self._lookup(offset)
        if register.on_read is not None:
            register.value = register.on_read() & _REGISTER_MASK
        return register.value

    def write(self, offset: int, value: int) -> None:
        register = self._lookup(offset)
        if register.readonly:
            raise MmioError(f"register {register.name!r} is read-only")
        register.value = value & _REGISTER_MASK
        if register.on_write is not None:
            register.on_write(register.value)

    # -- name-based access (agent convenience) ------------------------------------
    def read_named(self, name: str) -> int:
        return self.read(self._named(name).offset)

    def write_named(self, name: str, value: int) -> None:
        self.write(self._named(name).offset, value)

    def _lookup(self, offset: int) -> MmioRegister:
        if offset % REGISTER_BYTES != 0:
            raise MmioError(f"unaligned MMIO access at {offset:#x}")
        try:
            return self._by_offset[offset]
        except KeyError:
            raise MmioError(f"no register at offset {offset:#x}") from None

    def _named(self, name: str) -> MmioRegister:
        try:
            return self._by_name[name]
        except KeyError:
            raise MmioError(f"no register named {name!r}") from None

    def registers(self) -> Dict[str, int]:
        """Snapshot of the whole register file (diagnostics)."""
        return {name: reg.value for name, reg in self._by_name.items()}

    def __len__(self) -> int:
        return len(self._by_offset)
