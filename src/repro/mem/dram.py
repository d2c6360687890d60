"""DRAM device timing model.

Models a memory controller + DIMM group as a service station with a
fixed access latency, a finite number of banks (parallel in-flight
accesses) and a peak data rate. The memory-stealing endpoint masters
transactions into this device exactly like the local CPU does, so both
sides of a ThymesisFlow link contend for the same banks — one of the
second-order effects the paper's donor nodes experience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..obs import trace as _trace
from ..sim.engine import Simulator
from ..sim.resources import Resource
from ..sim.stats import RunningStats
from .address import CACHELINE_BYTES, AddressRange
from .backing import BackingStore

__all__ = ["DramTiming", "DramDevice"]


@dataclass(frozen=True)
class DramTiming:
    """Timing constants for one DRAM device.

    Defaults approximate a POWER9 AC922 local socket: ~85 ns loaded
    access latency and ~120 GiB/s per-socket sustained bandwidth.
    """

    access_latency_s: float = 85e-9
    bandwidth_bytes_per_s: float = 120 * (1 << 30)
    banks: int = 16

    def __post_init__(self):
        if self.access_latency_s < 0:
            raise ValueError(f"negative latency: {self.access_latency_s}")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"bandwidth must be > 0: {self.bandwidth_bytes_per_s}"
            )
        if self.banks < 1:
            raise ValueError(f"banks must be >= 1: {self.banks}")
        # Precomputed service constants for the burst hot path — the
        # same arithmetic the per-access formulation performs, so every
        # downstream timestamp stays bit-identical.
        object.__setattr__(
            self, "line_transfer_s", self.transfer_time(CACHELINE_BYTES)
        )
        object.__setattr__(
            self,
            "burst_service_s",
            self.access_latency_s + self.transfer_time(CACHELINE_BYTES),
        )

    def transfer_time(self, size: int) -> float:
        return size / self.bandwidth_bytes_per_s


class DramDevice:
    """A timed, functional DRAM: data really lands in a backing store.

    ``read``/``write`` return simulation processes; model code typically
    does ``data = yield dram.read(addr, size)``.
    """

    def __init__(
        self,
        sim: Simulator,
        window: AddressRange,
        timing: Optional[DramTiming] = None,
        name: str = "dram",
    ):
        self.sim = sim
        self.timing = timing or DramTiming()
        self.name = name
        self.backing = BackingStore(window, name=f"{name}.backing")
        self._banks = Resource(sim, self.timing.banks, name=f"{name}.banks")
        self.read_latency = RunningStats(f"{name}.read_latency")
        self.write_latency = RunningStats(f"{name}.write_latency")
        self.reads = 0
        self.writes = 0
        #: Highest concurrent bank occupancy seen (tracked only while
        #: tracing is enabled; stays 0 on the untraced fast path).
        self.peak_banks_in_use = 0

    @property
    def window(self) -> AddressRange:
        return self.backing.window

    def register_metrics(self, registry, **labels) -> None:
        """Pull collector: access counts, latency, bank occupancy."""

        def collect(reg):
            base = dict(device=self.name, **labels)
            reg.gauge("dram.reads", **base).set(self.reads)
            reg.gauge("dram.writes", **base).set(self.writes)
            reg.gauge("dram.banks_in_use", **base).set(self._banks.in_use)
            reg.gauge("dram.banks_peak", **base).set(self.peak_banks_in_use)
            reg.gauge("dram.banks_total", **base).set(self.timing.banks)
            if self.read_latency.count:
                reg.gauge("dram.read_latency_mean_s", **base).set(
                    self.read_latency.mean
                )
            if self.write_latency.count:
                reg.gauge("dram.write_latency_mean_s", **base).set(
                    self.write_latency.mean
                )

        registry.add_collector(collect)

    # -- timed access -----------------------------------------------------------
    def read(self, address: int, size: int = CACHELINE_BYTES):
        """Timed read process: yields, then returns the bytes."""
        return self.sim.process(
            self._access(address, size, None), name=f"{self.name}.read"
        )

    def write(self, address: int, data: bytes):
        """Timed write process."""
        return self.sim.process(
            self._access(address, len(data), data), name=f"{self.name}.write"
        )

    def read_burst(self, address: int, lines: int):
        """Timed batched read of ``lines`` contiguous cachelines.

        Holds one bank per line (capped at the device's bank count) for a
        single per-line service interval: when the burst fits the bank
        pool and no other traffic contends, this completes at exactly the
        instant ``lines`` concurrent per-line reads would.
        """
        return self.sim.process(
            self._access_burst(address, lines, None),
            name=f"{self.name}.read",
        )

    def write_burst(self, address: int, data: bytes):
        """Timed batched write of contiguous cachelines."""
        lines, remainder = divmod(len(data), CACHELINE_BYTES)
        if remainder:
            raise ValueError(
                f"{self.name}: burst writes need whole cachelines, "
                f"got {len(data)} bytes"
            )
        return self.sim.process(
            self._access_burst(address, lines, data),
            name=f"{self.name}.write",
        )

    def _access(
        self, address: int, size: int, data: Optional[bytes]
    ) -> Generator:
        start = self.sim.now
        yield self._banks.acquire()
        if _trace.ENABLED and self._banks.in_use > self.peak_banks_in_use:
            self.peak_banks_in_use = self._banks.in_use
        try:
            service = self.timing.access_latency_s + self.timing.transfer_time(size)
            yield service
            if data is None:
                result = self.backing.read(address, size)
            else:
                self.backing.write(address, data)
                result = None
        finally:
            self._banks.release()
        elapsed = self.sim.now - start
        if data is None:
            self.reads += 1
            self.read_latency.add(elapsed)
        else:
            self.writes += 1
            self.write_latency.add(elapsed)
        return result

    def _access_burst(
        self, address: int, lines: int, data: Optional[bytes]
    ) -> Generator:
        start = self.sim.now
        size = lines * CACHELINE_BYTES
        slots = min(lines, self.timing.banks)
        yield self._banks.acquire(slots)
        if _trace.ENABLED and self._banks.in_use > self.peak_banks_in_use:
            self.peak_banks_in_use = self._banks.in_use
        try:
            # Lines proceed in parallel across banks, so the burst's
            # service time is one per-line interval, not the sum.
            yield self.timing.burst_service_s
            if data is None:
                result = self.backing.read(address, size)
            else:
                self.backing.write(address, data)
                result = None
        finally:
            self._banks.release(slots)
        elapsed = self.sim.now - start
        if data is None:
            self.reads += lines
            self.read_latency.add_repeated(elapsed, lines)
        else:
            self.writes += lines
            self.write_latency.add_repeated(elapsed, lines)
        return result

    # -- immediate (untimed) access for functional-only paths -------------------
    def read_now(self, address: int, size: int = CACHELINE_BYTES) -> bytes:
        return self.backing.read(address, size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DramDevice({self.name!r}, window={self.window!r})"
