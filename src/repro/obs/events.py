"""Bounded structured event log (JSON-lines journal).

Where ``repro.obs.trace`` answers *where did the time go*, the event
log answers *what happened*: attach/detach/steal on the control plane,
fault injections and failovers in the resilience layer, retry storms
at the endpoints. Each event is a flat record carrying monotonic
sim-time, a global sequence number, a dotted ``kind``, and free-form
correlation fields (attachment ids, txn ids, network ids) that link it
to trace spans and metric label sets.

Determinism: events record **sim-time only** — never wall-clock — so a
seeded run emits a byte-identical journal every time, and the chaos CI
job can diff two runs with ``cmp``.

Same guard-flag pattern as ``trace``: logging is off by default, and
when off each instrumented call site costs one module-attribute load
plus a falsy branch. The journal is bounded (a deque) so an
instrumented long run cannot grow without limit; ``total`` and
``evicted`` report how much history was dropped.

Stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional

from .export import json_lines, write_artifact

__all__ = [
    "Event",
    "EventLog",
    "enable_events",
    "disable_events",
    "active_event_log",
    "event_logging",
    "capture_into",
    "emit",
    "merge_event_streams",
    "validate_event_jsonl",
]


class Event:
    """One journal entry: sequence number, sim-time, kind, fields."""

    __slots__ = ("seq", "t", "kind", "fields")

    def __init__(self, seq: int, t: float, kind: str, fields: Dict[str, Any]):
        self.seq = seq
        self.t = t
        self.kind = kind
        self.fields = fields

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"seq": self.seq, "t": self.t, "kind": self.kind}
        record.update(self.fields)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(seq={self.seq}, t={self.t!r}, kind={self.kind!r})"


class EventLog:
    """Bounded journal of :class:`Event` records.

    ``capacity`` bounds resident history; older events are evicted
    FIFO. ``total`` counts every event ever emitted, so ``evicted``
    (``total - len(log)``) makes silent truncation visible in
    artifacts instead of pretending the journal is complete.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("event log capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[Event] = deque(maxlen=capacity)
        self.total = 0
        self._seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def evicted(self) -> int:
        return self.total - len(self._events)

    def emit(self, now: float, kind: str, **fields: Any) -> Event:
        event = Event(self._seq, float(now), kind, fields)
        self._seq += 1
        self.total += 1
        self._events.append(event)
        return event

    def find(self, kind: Optional[str] = None, **fields: Any) -> List[Event]:
        """Events matching a kind and/or exact field values."""
        out = []
        for event in self._events:
            if kind is not None and event.kind != kind:
                continue
            if any(event.fields.get(k) != v for k, v in fields.items()):
                continue
            out.append(event)
        return out

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [event.as_dict() for event in self._events]

    def to_jsonl(self) -> str:
        return json_lines(self.to_dicts())

    def write_jsonl(self, path: str) -> None:
        write_artifact(path, self.to_jsonl())


def validate_event_jsonl(text: str) -> int:
    """Validate a JSON-lines journal; returns the event count.

    Checks each line is a JSON object with ``seq``/``t``/``kind``,
    that sequence numbers strictly increase, and that sim-time is
    non-negative and non-decreasing. An empty journal is valid (a run
    with logging enabled but nothing to report) and returns 0.
    """
    count = 0
    last_seq = None
    last_t = None
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number}: not valid JSON ({exc})")
        if not isinstance(record, dict):
            raise ValueError(f"line {number}: event is not an object")
        for key in ("seq", "t", "kind"):
            if key not in record:
                raise ValueError(f"line {number}: missing {key!r}")
        seq = record["seq"]
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise ValueError(f"line {number}: seq is not an integer")
        if last_seq is not None and seq <= last_seq:
            raise ValueError(
                f"line {number}: seq {seq} does not increase past {last_seq}"
            )
        t = record["t"]
        if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0:
            raise ValueError(f"line {number}: bad sim-time {t!r}")
        if last_t is not None and t < last_t:
            raise ValueError(
                f"line {number}: sim-time {t} goes backwards from {last_t}"
            )
        if not isinstance(record["kind"], str) or not record["kind"]:
            raise ValueError(f"line {number}: kind is not a non-empty string")
        last_seq = seq
        last_t = t
        count += 1
    return count


# -- module-level switch (same pattern as trace) ----------------------------------

#: Hot-path guard. Instrumented call sites check this before touching
#: anything else, so disabled logging costs one global load + branch.
ENABLED = False

_LOG: Optional[EventLog] = None


def enable_events(capacity: int = 4096) -> EventLog:
    """Install a fresh event log and enable emission."""
    global ENABLED, _LOG
    _LOG = EventLog(capacity=capacity)
    ENABLED = True
    return _LOG


def disable_events() -> Optional[EventLog]:
    """Disable emission; returns the log for export."""
    global ENABLED, _LOG
    log = _LOG
    ENABLED = False
    _LOG = None
    return log


def active_event_log() -> Optional[EventLog]:
    return _LOG


class event_logging:
    """Context manager for scoped logging: yields the EventLog."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self.log: Optional[EventLog] = None

    def __enter__(self) -> EventLog:
        self.log = enable_events(capacity=self.capacity)
        return self.log

    def __exit__(self, *exc_info: Any) -> None:
        disable_events()


def emit(now: float, kind: str, **fields: Any) -> None:
    """Emit an event if logging is enabled (guarded helper)."""
    if _LOG is not None:
        _LOG.emit(now, kind, **fields)


class capture_into:
    """Route emission into a caller-owned :class:`EventLog`, scoped.

    Unlike :class:`event_logging` (which installs a *fresh* log and
    discards the switch state), this temporarily redirects the module
    switch to an existing log and restores whatever was active on
    exit. It is how one process hosts several independent journals:
    the rack-domain coordinator (:mod:`repro.sim.domains`) runs many
    domains per worker and each domain swaps its own journal in for
    the duration of its window, so per-domain streams never
    interleave at the source.
    """

    def __init__(self, log: EventLog):
        self.log = log
        self._saved: Optional[tuple] = None

    def __enter__(self) -> EventLog:
        global ENABLED, _LOG
        self._saved = (ENABLED, _LOG)
        ENABLED = True
        _LOG = self.log
        return self.log

    def __exit__(self, *exc_info: Any) -> None:
        global ENABLED, _LOG
        ENABLED, _LOG = self._saved
        self._saved = None


def merge_event_streams(
    streams: Dict[str, List[Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    """Merge per-source journals into one deterministically-ordered list.

    ``streams`` maps a source name (e.g. ``rack0``) to that source's
    event records (``Event.as_dict()`` shape). Multiple sources emit at
    the same sim time constantly — every rack sees the same trace
    timestamps — so plain ``(t,)`` ordering would leave the interleave
    to chance. The merge key is the stable triple ``(t, domain,
    domain_seq)``: time first, then source name, then the source's own
    emission order. Each merged record carries ``domain`` and
    ``domain_seq`` (the source's original ``seq``), and the global
    ``seq`` is re-assigned contiguously so the merged journal satisfies
    :func:`validate_event_jsonl` (strictly increasing seq,
    non-decreasing t).
    """
    tagged = []
    for domain in sorted(streams):
        for record in streams[domain]:
            merged = dict(record)
            merged["domain"] = domain
            merged["domain_seq"] = merged.pop("seq")
            tagged.append(merged)
    tagged.sort(key=lambda r: (r["t"], r["domain"], r["domain_seq"]))
    for seq, record in enumerate(tagged):
        record["seq"] = seq
    return tagged
