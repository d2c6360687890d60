"""The SoC main bus: address-routed, timed load/store dispatch.

"From the System-on-Chip main bus standpoint, every peripheral is
memory-mapped … and communicates with specific load and store
transactions" (§I). The bus maps real-address windows to targets — DRAM
controllers, or an OpenCAPI-attached device in M1 mode (which then
behaves exactly like a memory controller for its window).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Protocol, Tuple

from ..mem.address import AddressError, AddressRange, CACHELINE_BYTES
from ..mem.dram import DramDevice
from ..obs import trace as _trace
from ..sim.engine import Process, Simulator
from .transactions import MemTransaction, ResponseCode, TLCommand

__all__ = ["BusTarget", "DramBusTarget", "SystemBus", "BusError"]


class BusError(RuntimeError):
    """Unroutable address or failed bus transaction."""


class BusTarget(Protocol):
    """Anything the bus can dispatch a transaction to.

    ``handle`` receives a request transaction whose address is already in
    the *target's* window, and must return a simulation
    :class:`~repro.sim.engine.Process` whose result is the response
    transaction.
    """

    def handle(self, txn: MemTransaction) -> Process:  # pragma: no cover
        ...


class DramBusTarget:
    """Adapter presenting a :class:`DramDevice` as a bus target."""

    def __init__(self, dram: DramDevice):
        self.dram = dram

    def handle(self, txn: MemTransaction) -> Process:
        sim = self.dram.sim
        return sim.process(self._serve(txn), name="dram.handle")

    def _serve(self, txn: MemTransaction) -> Generator:
        sim = self.dram.sim
        if _trace.ENABLED:
            _trace.txn_mark(
                sim.now, txn.base_txn_id, "dram.service", self.dram.name
            )
        response = yield from self._service(txn)
        if _trace.ENABLED:
            _trace.txn_mark(
                sim.now, txn.base_txn_id, "dram.done", self.dram.name
            )
        return response

    def _service(self, txn: MemTransaction) -> Generator:
        if txn.command == TLCommand.RD_MEM:
            if txn.burst > 1:
                data = yield self.dram.read_burst(txn.address, txn.burst)
            else:
                data = yield self.dram.read(txn.address, txn.size)
            return txn.make_response(data=data)
        if txn.command == TLCommand.WRITE_MEM:
            if txn.burst > 1:
                yield self.dram.write_burst(txn.address, txn.data)
            else:
                yield self.dram.write(txn.address, txn.data)
            return txn.make_response()
        return txn.make_response(code=ResponseCode.ADDRESS_ERROR)


class SystemBus:
    """Routes real-address transactions to the mapped target.

    Windows must not overlap. Lookup is a linear scan over a sorted list
    — node bus maps are tiny (DRAM per socket + a handful of devices).
    """

    def __init__(self, sim: Simulator, name: str = "bus"):
        self.sim = sim
        self.name = name
        # Process names are formatted once here, not per transaction:
        # nothing renames a bus after construction.
        self._load_name = f"{name}.load"
        self._store_name = f"{name}.store"
        self._map: List[Tuple[AddressRange, BusTarget]] = []
        self.loads = 0
        self.stores = 0

    # -- construction -----------------------------------------------------------
    def attach(self, window: AddressRange, target: BusTarget) -> None:
        for existing, _target in self._map:
            if existing.overlaps(window):
                raise BusError(
                    f"{self.name}: window {window!r} overlaps {existing!r}"
                )
        self._map.append((window, target))
        self._map.sort(key=lambda pair: pair[0].start)

    def detach(self, window: AddressRange) -> None:
        for index, (existing, _target) in enumerate(self._map):
            if existing == window:
                del self._map[index]
                return
        raise BusError(f"{self.name}: window {window!r} not attached")

    def attach_dram(self, dram: DramDevice) -> None:
        self.attach(dram.window, DramBusTarget(dram))

    # -- routing ------------------------------------------------------------------
    def target_for(self, address: int, size: int) -> Tuple[AddressRange, BusTarget]:
        end = address + size
        for window, target in self._map:
            if window.contains_span(address, size):
                return window, target
            if window.start < end and address < window.start + window.size:
                raise BusError(
                    f"{self.name}: access [{address:#x}, "
                    f"{address + size:#x}) straddles window {window!r}"
                )
        # With an empty map contains_span never ran: reject a malformed
        # access the same way before reporting it unmapped.
        AddressRange(address, size)
        raise BusError(
            f"{self.name}: no target mapped at {address:#x} (+{size})"
        )

    def windows(self) -> List[AddressRange]:
        return [window for window, _target in self._map]

    # -- timed operations ------------------------------------------------------------
    def issue(self, txn: MemTransaction) -> Process:
        """Dispatch a prepared transaction; returns the response process."""
        _window, target = self.target_for(txn.address, txn.size)
        txn.issued_at = self.sim.now
        if txn.command == TLCommand.RD_MEM:
            self.loads += txn.burst
            if _trace.ENABLED:
                _trace.txn_begin(
                    self.sim.now, txn.base_txn_id, "load", txn.size, self.name
                )
        elif txn.command == TLCommand.WRITE_MEM:
            self.stores += txn.burst
            if _trace.ENABLED:
                _trace.txn_begin(
                    self.sim.now, txn.base_txn_id, "store", txn.size, self.name
                )
        return target.handle(txn)

    def load(self, address: int, size: int = CACHELINE_BYTES) -> Process:
        """Timed load; the process result is the data bytes."""
        return self.sim.process(
            self._load(address, size), name=self._load_name
        )

    def store(self, address: int, data: bytes) -> Process:
        """Timed store; the process result is the response code."""
        return self.sim.process(
            self._store(address, data), name=self._store_name
        )

    def load_burst(self, address: int, lines: int) -> Process:
        """Timed batched load of ``lines`` contiguous cachelines.

        The whole run must fall inside one bus window (callers batch
        within a page, which never straddles windows).
        """
        return self.sim.process(
            self._issue_burst(MemTransaction.read_burst(address, lines)),
            name=self._load_name,
        )

    def store_burst(self, address: int, data: bytes) -> Process:
        """Timed batched store of contiguous cachelines."""
        return self.sim.process(
            self._issue_burst(MemTransaction.write_burst(address, data)),
            name=self._store_name,
        )

    def register_metrics(self, registry, **labels) -> None:
        """Expose the per-node load/store mix through a pull collector."""

        def collect(reg):
            reg.gauge("bus.loads", bus=self.name, **labels).set(self.loads)
            reg.gauge("bus.stores", bus=self.name, **labels).set(self.stores)

        registry.add_collector(collect)

    def _issue_burst(self, txn: MemTransaction) -> Generator:
        response = yield self.issue(txn)
        if _trace.ENABLED:
            _trace.txn_end(self.sim.now, txn.base_txn_id, self.name)
        if response.response_code is not ResponseCode.OK:
            raise BusError(
                f"{self.name}: burst {txn.command.name} {txn.address:#x} "
                f"failed: {response.response_code.name}"
            )
        if txn.command == TLCommand.RD_MEM:
            return response.data
        return response.response_code

    def _load(self, address: int, size: int) -> Generator:
        txn = MemTransaction.read(address, size)
        response = yield self.issue(txn)
        if _trace.ENABLED:
            _trace.txn_end(self.sim.now, txn.base_txn_id, self.name)
        if response.response_code is not ResponseCode.OK:
            raise BusError(
                f"{self.name}: load {address:#x} failed: "
                f"{response.response_code.name}"
            )
        return response.data

    def _store(self, address: int, data: bytes) -> Generator:
        txn = MemTransaction.write(address, data)
        response = yield self.issue(txn)
        if _trace.ENABLED:
            _trace.txn_end(self.sim.now, txn.base_txn_id, self.name)
        if response.response_code is not ResponseCode.OK:
            raise BusError(
                f"{self.name}: store {address:#x} failed: "
                f"{response.response_code.name}"
            )
        return response.response_code

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SystemBus({self.name!r}, windows={len(self._map)})"
