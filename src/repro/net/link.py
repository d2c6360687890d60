"""Point-to-point link model: bonded serdes lanes with in-order delivery.

The prototype's network channels each drive "4x bonded GTY transceivers
at 25Gbit/sec (100Gbit/sec)" using the Xilinx Aurora 64B/66B datalink
layer (§V). This module models one such channel as a unidirectional
serializing pipe: frames queue at the transmitter, occupy the wire for
``size / rate`` seconds, cross two serdes PHYs and the cable, and pop
out at the receiver in order. Fault injection happens on the wire.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..accel import ops
from ..obs import trace as _trace
from ..sim.engine import Simulator
from ..sim.resources import Store
from ..sim.stats import RunningStats
from .faults import FaultInjector

__all__ = [
    "LinkConfig",
    "SerialLink",
    "DuplexChannel",
    "AURORA_OVERHEAD",
    "SERDES_CROSSING_S",
]

#: Aurora 64B/66B line coding overhead (64 payload bits per 66 wire bits).
AURORA_OVERHEAD = 66.0 / 64.0

#: One serdes (PHY) crossing. The 950 ns RTT budget counts six serdes
#: crossings end-to-end; two of them belong to each network traversal.
SERDES_CROSSING_S = 55e-9


class LinkConfig:
    """Static parameters of one unidirectional channel.

    The derived rates are precomputed once here: ``serialization_time``
    sits on the per-frame hot path of every link pump, and walking the
    ``payload_bits_per_s`` -> ``raw_bits_per_s`` property chain on each
    frame costs two Python calls and three float ops per frame for
    values that never change after construction. The properties remain
    as thin reads of the precomputed fields; the instance is treated as
    immutable (construct a new config to change a parameter).
    """

    def __init__(
        self,
        lanes: int = 4,
        lane_gbps: float = 25.0,
        cable_propagation_s: float = 15e-9,
        serdes_crossing_s: float = SERDES_CROSSING_S,
        coding_overhead: float = AURORA_OVERHEAD,
    ):
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1: {lanes}")
        if lane_gbps <= 0:
            raise ValueError(f"lane_gbps must be > 0: {lane_gbps}")
        self.lanes = lanes
        self.lane_gbps = lane_gbps
        self.cable_propagation_s = cable_propagation_s
        self.serdes_crossing_s = serdes_crossing_s
        self.coding_overhead = coding_overhead
        # Same arithmetic as the former property chain, so precomputed
        # values (and every downstream timestamp) stay bit-identical.
        self._raw_bits_per_s = lanes * lane_gbps * 1e9
        self._payload_bits_per_s = self._raw_bits_per_s / coding_overhead
        self._flight_latency_s = serdes_crossing_s + cable_propagation_s

    @property
    def raw_bits_per_s(self) -> float:
        return self._raw_bits_per_s

    @property
    def payload_bits_per_s(self) -> float:
        """Line rate available to payload after 64B/66B coding."""
        return self._payload_bits_per_s

    @property
    def flight_latency_s(self) -> float:
        """Per-frame fixed latency: one serdes crossing + the cable.

        The paper's RTT budget counts "two [serdes crossings] for the
        network" — one per direction (§V)."""
        return self._flight_latency_s

    def serialization_time(self, payload_bytes: int) -> float:
        return payload_bytes * 8 / self._payload_bits_per_s


class SerialLink:
    """One direction of a network channel.

    ``send(payload, size_bytes)`` enqueues; an internal pump process
    serializes strictly in order (this is what makes LLC frame ids
    monotonic on the wire). Dropped frames vanish; corrupted frames are
    delivered with ``corrupted=True`` attached via a wrapper tuple —
    receivers see ``(payload, corrupted)``.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[LinkConfig] = None,
        faults: Optional[FaultInjector] = None,
        name: str = "link",
        tx_queue_depth: Optional[int] = None,
        rx_store: Optional[Store] = None,
    ):
        self.sim = sim
        self.config = config or LinkConfig()
        self.faults = faults
        self.name = name
        self._tx_queue: Store = Store(sim, capacity=tx_queue_depth,
                                      name=f"{name}.txq")
        #: Delivery target; pass ``rx_store`` to terminate the link on a
        #: foreign queue (e.g. a circuit switch's port ingress).
        self.rx: Store = rx_store if rx_store is not None else Store(
            sim, name=f"{name}.rx")
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.frames_sent = 0
        self.frames_delivered = 0
        self.queue_delay = RunningStats(f"{name}.queue_delay")
        self._busy_until = 0.0
        sim.process(self._pump(), name=f"{name}.pump")

    # -- transmit side -----------------------------------------------------------
    def send(self, payload: Any, size_bytes: int,
             pre_corrupted: bool = False):
        """Waitable enqueue of one frame (fires when queued).

        ``pre_corrupted`` propagates upstream damage through multi-hop
        paths (a switch re-transmitting a frame it received corrupted).
        """
        if size_bytes <= 0:
            raise ValueError(f"frame size must be > 0: {size_bytes}")
        self.frames_sent += 1
        self.bytes_sent += size_bytes
        return self._tx_queue.put(
            (payload, size_bytes, self.sim.now, pre_corrupted)
        )

    def try_send(self, payload: Any, size_bytes: int,
                 pre_corrupted: bool = False) -> bool:
        if self._tx_queue.try_put(
            (payload, size_bytes, self.sim.now, pre_corrupted)
        ):
            self.frames_sent += 1
            self.bytes_sent += size_bytes
            return True
        return False

    # -- wire pump ------------------------------------------------------------------
    def _pump(self) -> Generator:
        # The pump drains every frame queued at its wake-up instant in
        # one pass, computing each frame's wire occupancy analytically
        # instead of sleeping through it. The run's serialization
        # boundaries come from the batch schedule kernel, which
        # accumulates with the same float additions in the same order the
        # sleeping formulation performed, and deliveries are scheduled at
        # those absolute times — so delivery timestamps (and the
        # fault-injector's per-frame decision order) are bit-identical
        # across formulations; the frames just cost two events instead
        # of four.
        while True:
            entry = yield self._tx_queue.get()
            # No yields below, so nothing can enqueue mid-drain: taking
            # the whole run up front preserves arrival order exactly.
            entries = [entry]
            while True:
                entry = self._tx_queue.try_get()
                if entry is None:
                    break
                entries.append(entry)
            wire_free = self._busy_until
            if wire_free < self.sim.now:
                wire_free = self.sim.now
            bounds = ops.serialization_schedule(
                wire_free,
                [item[1] for item in entries],
                self.config.payload_bits_per_s,
            )
            for index, item in enumerate(entries):
                payload, size_bytes, enqueued_at, pre_corrupted = item
                ser_start = bounds[index]
                ser_end = bounds[index + 1]
                self.queue_delay.add(ser_start - enqueued_at)
                if _trace.ENABLED:
                    _trace.span(
                        "link.serialize",
                        ser_start,
                        ser_end,
                        self.name,
                        bytes=size_bytes,
                    )
                decision = self.faults.decide() if self.faults else None
                if not (decision is not None and decision.drop):
                    corrupted = pre_corrupted or bool(
                        decision is not None and decision.corrupt
                    )
                    if corrupted and _trace.ENABLED:
                        _trace.instant(
                            "link.corrupt", ser_start, self.name,
                            bytes=size_bytes,
                        )
                    self.sim.schedule_at(
                        ser_end + self.config.flight_latency_s,
                        self._deliver,
                        payload,
                        size_bytes,
                        corrupted,
                    )
                elif _trace.ENABLED:
                    _trace.instant(
                        "link.drop", ser_start, self.name, bytes=size_bytes
                    )
            self._busy_until = bounds[-1]

    def _deliver(self, payload: Any, size_bytes: int, corrupted: bool) -> None:
        self.frames_delivered += 1
        self.bytes_delivered += size_bytes
        if not self._tx_to_rx(payload, corrupted):
            raise RuntimeError(f"{self.name}: rx overflow (unbounded store?)")

    def _tx_to_rx(self, payload: Any, corrupted: bool) -> bool:
        return self.rx.try_put((payload, corrupted))

    # -- observability ------------------------------------------------------------
    def utilization(self, window_s: float) -> float:
        """Mean payload utilization over elapsed time ``window_s``."""
        if window_s <= 0:
            return 0.0
        return (self.bytes_delivered * 8 / self.config.payload_bits_per_s) / window_s

    def register_metrics(self, registry, **labels) -> None:
        """Pull collector: traffic volume, queueing, live utilization."""

        def collect(reg):
            base = dict(link=self.name, **labels)
            reg.gauge("link.bytes_sent", **base).set(self.bytes_sent)
            reg.gauge("link.bytes_delivered", **base).set(self.bytes_delivered)
            reg.gauge("link.frames_sent", **base).set(self.frames_sent)
            reg.gauge("link.frames_delivered", **base).set(
                self.frames_delivered
            )
            if self.queue_delay.count:
                reg.gauge("link.queue_delay_mean_s", **base).set(
                    self.queue_delay.mean
                )
            reg.gauge("link.utilization", **base).set(
                self.utilization(self.sim.now)
            )
            if self.faults is not None:
                self.faults.collect_into(reg, link=self.name, **labels)

        registry.add_collector(collect)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SerialLink({self.name!r}, {self.config.lanes}x"
            f"{self.config.lane_gbps}G, sent={self.frames_sent})"
        )


class DuplexChannel:
    """A bidirectional network channel: two mirrored serial links.

    ``a_to_b``/``b_to_a`` are the two directions; endpoints hold opposite
    perspectives via :meth:`endpoint_view`.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[LinkConfig] = None,
        faults_ab: Optional[FaultInjector] = None,
        faults_ba: Optional[FaultInjector] = None,
        name: str = "channel",
    ):
        self.sim = sim
        self.name = name
        self.config = config or LinkConfig()
        self.a_to_b = SerialLink(sim, self.config, faults_ab, name=f"{name}.ab")
        self.b_to_a = SerialLink(sim, self.config, faults_ba, name=f"{name}.ba")

    def endpoint_view(self, side: str) -> "ChannelEndpointView":
        if side == "a":
            return ChannelEndpointView(self.a_to_b, self.b_to_a)
        if side == "b":
            return ChannelEndpointView(self.b_to_a, self.a_to_b)
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")


class ChannelEndpointView:
    """One endpoint's view of a duplex channel: my tx link + my rx store."""

    def __init__(self, tx_link: SerialLink, rx_link: SerialLink):
        self.tx_link = tx_link
        self.rx_link = rx_link

    def send(self, payload: Any, size_bytes: int):
        return self.tx_link.send(payload, size_bytes)

    @property
    def rx(self) -> Store:
        return self.rx_link.rx
