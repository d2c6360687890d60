"""Link-Layer Control (LLC) protocol — paper §IV-A4.

Implements the two reliability features of the ThymesisFlow network
stack exactly as specified:

* **Credit-based backpressure** — the Tx side holds one credit per empty
  slot of the peer's Rx ingress queue, consuming a credit per
  transaction transmitted and stalling at zero. Credits are returned by
  piggy-backing grants "on the transaction headers of requests and
  responses"; if the reverse direction is idle, a small control frame
  carries them (hardware would eventually do the same or starve).
* **Frame replay** — transactions are packed into fixed-size frames of
  ``flits_per_frame`` 32 B flits; "incomplete frames are padded with
  single-flit nop transaction headers for immediate transmission".
  Frames carry monotonically increasing identifiers and a CRC. The Rx
  side accepts only the next in-order, CRC-clean frame; anything else
  triggers an in-band single-flit **replay request**, and the Tx side
  replays the requested sequence in order from its retention buffer.
  Retention is pruned by cumulative acknowledgements piggy-backed on
  reverse-direction frames; a Tx-side timer recovers tail loss.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..accel import ops
from ..net.crc import crc32
from ..net.link import ChannelEndpointView
from ..obs import trace as _trace
from ..opencapi.ports import FPGA_STACK_CROSSING_S
from ..opencapi.transactions import (
    FLIT_BYTES,
    MemTransaction,
    TLCommand,
    split_burst,
    transaction_flits,
)
from ..sim.engine import Simulator
from ..sim.resources import CreditPool, Store

__all__ = ["LlcConfig", "Frame", "LlcEndpoint", "LlcError"]

#: Fixed per-frame header: frame id, CRC, cumulative ack, credit grant.
FRAME_HEADER_BYTES = 16


class LlcError(RuntimeError):
    """Protocol violation detected by the LLC (model bug, not link loss)."""


@dataclass
class LlcConfig:
    """Tunable parameters of one LLC instance (both directions)."""

    flits_per_frame: int = 16
    rx_queue_slots: int = 256
    replay_timeout_s: float = 5e-6
    control_frame_delay_s: float = 500e-9
    pipeline_latency_s: float = FPGA_STACK_CROSSING_S
    max_retention_frames: int = 4096
    #: Frame-fill window: transactions arriving within a couple of
    #: 401 MHz cycles of each other share a frame (the hardware packs
    #: whatever is present in the pipeline stage when the frame closes).
    packing_delay_s: float = 5e-9

    def __post_init__(self):
        if self.flits_per_frame < 5:
            # A 128 B write needs 5 flits; frames must fit one transaction.
            raise ValueError(
                f"flits_per_frame must be >= 5: {self.flits_per_frame}"
            )
        if self.rx_queue_slots < 1:
            raise ValueError(
                f"rx_queue_slots must be >= 1: {self.rx_queue_slots}"
            )

    @property
    def frame_wire_bytes(self) -> int:
        return self.flits_per_frame * FLIT_BYTES + FRAME_HEADER_BYTES


_frame_seq = itertools.count()


@dataclass
class Frame:
    """One LLC frame on the wire."""

    frame_id: Optional[int]  #: None for out-of-band control frames
    transactions: List[MemTransaction] = field(default_factory=list)
    nop_padding: int = 0
    crc: int = 0
    ack_id: Optional[int] = None
    credit_grant: int = 0
    replay_from: Optional[int] = None  #: set on replay-request control frames
    is_replay: bool = False
    wire_bytes: int = 0
    sent_at: float = 0.0
    uid: int = field(default_factory=lambda: next(_frame_seq))

    @property
    def is_control(self) -> bool:
        return self.frame_id is None

    @property
    def flit_count(self) -> int:
        return sum(transaction_flits(t) for t in self.transactions) + self.nop_padding

    def digest(self) -> bytes:
        # A burst segment covers the same per-line headers the unbatched
        # formulation would put on the wire; the CRC protects each of
        # them.
        identity = self.frame_id if self.frame_id is not None else -1
        return ops.frame_digest(
            identity,
            [
                (txn.txn_id, txn.command.value, txn.burst)
                for txn in self.transactions
            ],
        )

    def seal(self) -> None:
        self.crc = crc32(self.digest())

    def crc_ok(self) -> bool:
        return self.crc == crc32(self.digest())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "ctl" if self.is_control else f"#{self.frame_id}"
        return f"Frame({kind}, txns={len(self.transactions)})"


class LlcEndpoint:
    """One side of an LLC-protected network channel.

    Datapath interface:

    * :meth:`submit` — waitable enqueue of a transaction for the peer
      (consumes a credit; stalls under backpressure).
    * :meth:`receive` — waitable dequeue of the next transaction from
      the ingress queue (frees a slot, i.e. grants a credit back).
    """

    def __init__(
        self,
        sim: Simulator,
        channel: ChannelEndpointView,
        config: Optional[LlcConfig] = None,
        name: str = "llc",
    ):
        self.sim = sim
        self.channel = channel
        self.config = config or LlcConfig()
        self.name = name

        # Tx state ---------------------------------------------------------------
        self._tx_queue = Store(sim, name=f"{name}.txq")
        #: Remainder of a burst transaction split across frames; it sits
        #: logically at the head of the tx queue (its lines were queued
        #: before anything submitted later).
        self._pending_bulk: Optional[MemTransaction] = None
        self._credits = CreditPool(
            sim, self.config.rx_queue_slots, name=f"{name}.credits"
        )
        self._next_frame_id = 0
        self._retention: Dict[int, Frame] = {}
        self._retention_timer_armed = False

        # Rx state ---------------------------------------------------------------
        self._expected_id = 0
        self._replay_requested_for = -1
        self._ingress = Store(
            sim, capacity=self.config.rx_queue_slots, name=f"{name}.ingress"
        )
        self._pending_grants = 0
        self._control_flush_armed = False
        self._last_tx_time = -1.0

        # Counters -----------------------------------------------------------------
        self.frames_built = 0
        self.control_frames = 0
        self.replays_requested = 0
        self.replays_served = 0
        self.frames_out_of_order = 0
        self.frames_corrupted = 0
        self.frames_duplicate = 0
        self.nops_padded = 0
        self.txns_sent = 0
        self.txns_received = 0
        self.timeout_recoveries = 0

        sim.process(self._tx_pump(), name=f"{name}.tx")
        sim.process(self._rx_pump(), name=f"{name}.rx")

    # ------------------------------------------------------------------ datapath
    def submit(self, txn: MemTransaction):
        """Waitable submit; fires once the transaction is queued for Tx."""
        return self.sim.process(self._submit(txn), name=f"{self.name}.submit")

    def _submit(self, txn: MemTransaction) -> Generator:
        if _trace.ENABLED:
            _trace.txn_mark(
                self.sim.now, txn.base_txn_id, "llc.credit_wait", self.name
            )
        yield self._credits.consume(txn.burst)
        if _trace.ENABLED:
            _trace.txn_mark(
                self.sim.now, txn.base_txn_id, "llc.submit", self.name
            )
        yield self._tx_queue.put(txn)

    def receive(self):
        """Waitable receive of the next ingress transaction."""
        return self.sim.process(self._receive(), name=f"{self.name}.recv")

    def _receive(self) -> Generator:
        txn = yield self._ingress.get()
        # A burst segment occupied one ingress slot per cacheline worth
        # of credit the peer consumed; free them all.
        self._pending_grants += txn.burst
        self._arm_control_flush()
        return txn

    @property
    def credits_available(self) -> int:
        return self._credits.credits

    @property
    def credit_stalls(self) -> int:
        """Times a submit had to wait for the peer to free a slot."""
        return self._credits.stall_count

    @property
    def retention_depth(self) -> int:
        return len(self._retention)

    def register_metrics(self, registry, **labels) -> None:
        """Pull collector: frame/replay/credit counters for this side."""

        def collect(reg):
            base = dict(llc=self.name, **labels)
            gauge = lambda metric, value: reg.gauge(metric, **base).set(value)
            gauge("llc.frames_built", self.frames_built)
            gauge("llc.control_frames", self.control_frames)
            gauge("llc.replays_requested", self.replays_requested)
            gauge("llc.replays_served", self.replays_served)
            gauge("llc.frames_out_of_order", self.frames_out_of_order)
            gauge("llc.frames_corrupted", self.frames_corrupted)
            gauge("llc.frames_duplicate", self.frames_duplicate)
            gauge("llc.nops_padded", self.nops_padded)
            gauge("llc.txns_sent", self.txns_sent)
            gauge("llc.txns_received", self.txns_received)
            gauge("llc.timeout_recoveries", self.timeout_recoveries)
            gauge("llc.credit_stalls", self.credit_stalls)
            gauge("llc.credits_available", self._credits.credits)
            gauge("llc.retention_depth", len(self._retention))

        registry.add_collector(collect)

    def reset_link(self) -> None:
        """Link bring-up: resynchronize frame identifiers (§IV-A4).

        "During link bring-up, the ThymesisFlow LLC Tx side agrees on a
        starting frame identifier with the Rx side." Called when a
        channel is (re)pointed at a peer — e.g. a rack-scale circuit
        switch establishing a new light path. The link must be idle:
        retained frames belong to the previous peer and are dropped,
        frame ids restart from zero, and the full credit budget is
        restored (the new peer's ingress queue is empty).
        """
        self._retention.clear()
        self._next_frame_id = 0
        self._expected_id = 0
        self._replay_requested_for = -1
        self._pending_grants = 0
        self._pending_bulk = None
        while self._tx_queue.try_get() is not None:
            pass
        self._credits.reset(self.config.rx_queue_slots)

    # ------------------------------------------------------------------ tx side
    def _tx_pump(self) -> Generator:
        while True:
            if self._pending_bulk is not None:
                # Remaining lines of a split burst are logically at the
                # head of the queue; in the per-line formulation the
                # blocking get() would fire immediately here anyway.
                first, self._pending_bulk = self._pending_bulk, None
            else:
                first = yield self._tx_queue.get()
            if self.config.packing_delay_s > 0:
                # Let same-instant submitters land in the queue so the
                # frame leaves full instead of 1-transaction-per-frame.
                yield self.config.packing_delay_s
            capacity = self.config.flits_per_frame
            transactions: List[MemTransaction] = []
            flits = 0
            leftover = self._pack(transactions, first, capacity, flits)
            flits = sum(transaction_flits(t) for t in transactions)
            if leftover is None:
                # Greedily fill the frame with whatever is already
                # queued — but never wait for more ("immediate
                # transmission").
                while True:
                    candidate = self._tx_queue.try_get()
                    if candidate is None:
                        break
                    per_line = transaction_flits(candidate) // candidate.burst
                    if flits + per_line > capacity:
                        # Not even one cacheline fits: defer the whole
                        # candidate, exactly like the per-line case.
                        leftover = candidate
                        break
                    leftover = self._pack(
                        transactions, candidate, capacity, flits
                    )
                    flits = sum(transaction_flits(t) for t in transactions)
                    if leftover is not None:
                        break
            frame = self._build_frame(transactions, flits)
            self._transmit(frame)
            if leftover is not None:
                # The stash quirk, per cacheline: the first deferred
                # line leaves in its own immediate frame; further lines
                # of a split burst stay pending ahead of the queue.
                if leftover.burst == 1:
                    head, rest = leftover, None
                else:
                    head = split_burst(leftover, 0, 1)
                    rest = split_burst(leftover, 1, leftover.burst - 1)
                frame = self._build_frame([head], transaction_flits(head))
                self._transmit(frame)
                self._pending_bulk = rest

    def _pack(
        self,
        transactions: List[MemTransaction],
        txn: MemTransaction,
        capacity: int,
        flits: int,
    ) -> Optional[MemTransaction]:
        """Pack as many whole cachelines of ``txn`` as fit.

        Returns the unpacked remainder (a split burst) or None when the
        transaction fit entirely. At least one line always fits: frames
        hold >= 5 flits and a cacheline is at most 5.
        """
        if txn.burst == 1:
            transactions.append(txn)
            return None
        per_line = transaction_flits(txn) // txn.burst
        room = (capacity - flits) // per_line
        take = min(txn.burst, room)
        if take == txn.burst:
            transactions.append(txn)
            return None
        transactions.append(split_burst(txn, 0, take))
        return split_burst(txn, take, txn.burst - take)

    def _build_frame(
        self, transactions: List[MemTransaction], flits: int
    ) -> Frame:
        padding = self.config.flits_per_frame - flits
        self.nops_padded += padding
        frame = Frame(
            frame_id=self._next_frame_id,
            transactions=transactions,
            nop_padding=padding,
            wire_bytes=self.config.frame_wire_bytes,
        )
        self._next_frame_id += 1
        self.frames_built += 1
        self.txns_sent += sum(t.burst for t in transactions)
        if _trace.ENABLED:
            now = self.sim.now
            for txn in transactions:
                if txn.command is not TLCommand.NOP:
                    _trace.txn_mark(
                        now, txn.base_txn_id, "llc.frame", self.name
                    )
        return frame

    def _transmit(self, frame: Frame) -> None:
        """Stamp piggybacks, seal, retain and launch one frame."""
        if not frame.is_control:
            self._retention[frame.frame_id] = frame
            if len(self._retention) > self.config.max_retention_frames:
                raise LlcError(
                    f"{self.name}: retention overflow "
                    f"({len(self._retention)} frames unacked)"
                )
            self._arm_retention_timer()
        frame.ack_id = self._expected_id - 1 if self._expected_id else None
        frame.credit_grant = self._pending_grants
        self._pending_grants = 0
        frame.seal()
        frame.sent_at = self.sim.now
        self._last_tx_time = self.sim.now
        # The FPGA pipeline adds latency without limiting throughput:
        # launch after the crossing delay rather than stalling the pump.
        self.sim.schedule(
            self.config.pipeline_latency_s,
            self._launch,
            frame,
        )

    def _launch(self, frame: Frame) -> None:
        if not self.channel.tx_link.try_send(frame, frame.wire_bytes):
            raise LlcError(f"{self.name}: tx link queue rejected frame")

    def _retransmit_from(self, from_id: int) -> None:
        """Serve a replay request: resend retained frames in order."""
        for frame_id in sorted(self._retention):
            if frame_id < from_id:
                continue
            original = self._retention[frame_id]
            copy = Frame(
                frame_id=original.frame_id,
                transactions=original.transactions,
                nop_padding=original.nop_padding,
                wire_bytes=original.wire_bytes,
                is_replay=True,
            )
            copy.ack_id = self._expected_id - 1 if self._expected_id else None
            copy.credit_grant = self._pending_grants
            self._pending_grants = 0
            copy.seal()
            copy.sent_at = self.sim.now
            self._retention[frame_id] = copy  # refresh retention timestamp
            self.replays_served += 1
            self.sim.schedule(
                self.config.pipeline_latency_s, self._launch, copy
            )

    # -- retention timeout (tail-loss recovery) -------------------------------------
    def _arm_retention_timer(self) -> None:
        if self._retention_timer_armed:
            return
        self._retention_timer_armed = True
        self.sim.schedule(
            self.config.replay_timeout_s, self._retention_timer_fired
        )

    def _retention_timer_fired(self) -> None:
        self._retention_timer_armed = False
        if not self._retention:
            return
        oldest_id = min(self._retention)
        age = self.sim.now - self._retention[oldest_id].sent_at
        # The epsilon absorbs float round-off: an age within one part in
        # 1e9 of the timeout counts as expired, and the re-arm delay has
        # a floor, or the timer could re-fire at the same simulated
        # instant forever.
        if age >= self.config.replay_timeout_s * (1.0 - 1e-9):
            # Still unacknowledged a full timeout after (re)transmission:
            # the frame or every replay request for it was lost.
            self.timeout_recoveries += 1
            self._retransmit_from(oldest_id)
            self._retention_timer_armed = True
            self.sim.schedule(
                self.config.replay_timeout_s, self._retention_timer_fired
            )
        else:
            self._retention_timer_armed = True
            remaining = max(self.config.replay_timeout_s - age, 1e-9)
            self.sim.schedule(remaining, self._retention_timer_fired)

    # ------------------------------------------------------------------ rx side
    def _rx_pump(self) -> Generator:
        while True:
            frame, corrupted = yield self.channel.rx.get()
            self.sim.schedule(
                self.config.pipeline_latency_s,
                self._process_frame,
                frame,
                corrupted,
            )

    def _process_frame(self, frame: Frame, corrupted: bool) -> None:
        if corrupted or not frame.crc_ok():
            self.frames_corrupted += 1
            if _trace.ENABLED:
                _trace.instant(
                    "llc.frame_corrupted",
                    self.sim.now,
                    self.name,
                    frame_id=frame.frame_id,
                )
            if not frame.is_control:
                self._request_replay()
            return
        # Piggybacked state is valid on any CRC-clean frame.
        self._apply_piggyback(frame)
        if frame.is_control:
            if frame.replay_from is not None:
                self._retransmit_from(frame.replay_from)
            return
        if frame.frame_id == self._expected_id:
            self._accept(frame)
        elif frame.frame_id > self._expected_id:
            self.frames_out_of_order += 1
            self._request_replay()
        else:
            self.frames_duplicate += 1
            # Re-ack duplicates so the peer can prune retention.
            self._arm_control_flush(force=True)

    def _accept(self, frame: Frame) -> None:
        self._expected_id += 1
        self._replay_requested_for = -1  # progress: allow a new request
        for txn in frame.transactions:
            if txn.command == TLCommand.NOP:
                continue
            if not self._ingress.try_put(txn):
                raise LlcError(
                    f"{self.name}: ingress overflow — peer violated credits"
                )
            self.txns_received += txn.burst
            if _trace.ENABLED:
                _trace.txn_mark(
                    self.sim.now, txn.base_txn_id, "llc.deliver", self.name
                )
        # Deliver an ack opportunistically with the next outbound frame;
        # if the tx side stays idle the control flush will carry it.
        self._arm_control_flush()

    def _apply_piggyback(self, frame: Frame) -> None:
        if frame.credit_grant:
            self._credits.grant(frame.credit_grant)
        if frame.ack_id is not None:
            for frame_id in [f for f in self._retention if f <= frame.ack_id]:
                del self._retention[frame_id]

    def _request_replay(self) -> None:
        # One outstanding request per gap: further out-of-order arrivals
        # for the same expected id would only multiply replay traffic
        # (the Tx retention timer covers a lost request).
        if self._replay_requested_for == self._expected_id:
            return
        self._replay_requested_for = self._expected_id
        self.replays_requested += 1
        if _trace.ENABLED:
            _trace.instant(
                "llc.replay_request",
                self.sim.now,
                self.name,
                expected=self._expected_id,
            )
        self._send_control(replay_from=self._expected_id)

    # -- control frames -----------------------------------------------------------------
    def _arm_control_flush(self, force: bool = False) -> None:
        if self._control_flush_armed:
            return
        self._control_flush_armed = True
        delay = 0.0 if force else self.config.control_frame_delay_s
        self.sim.schedule(delay, self._control_flush_fired)

    def _control_flush_fired(self) -> None:
        self._control_flush_armed = False
        # If regular traffic flowed meanwhile, it carried the piggyback.
        recently_sent = (
            self._last_tx_time >= 0
            and (self.sim.now - self._last_tx_time)
            < self.config.control_frame_delay_s
        )
        need_ack = self._expected_id > 0
        if (self._pending_grants or need_ack) and not recently_sent:
            self._send_control()

    def _send_control(self, replay_from: Optional[int] = None) -> None:
        """Single-flit in-band control frame (replay request / credits)."""
        frame = Frame(
            frame_id=None,
            nop_padding=1,
            replay_from=replay_from,
            wire_bytes=FLIT_BYTES + FRAME_HEADER_BYTES,
        )
        frame.ack_id = self._expected_id - 1 if self._expected_id else None
        frame.credit_grant = self._pending_grants
        self._pending_grants = 0
        frame.seal()
        self.control_frames += 1
        self._last_tx_time = self.sim.now
        self.sim.schedule(self.config.pipeline_latency_s, self._launch, frame)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LlcEndpoint({self.name!r}, sent={self.txns_sent}, "
            f"recv={self.txns_received}, credits={self._credits.credits})"
        )
