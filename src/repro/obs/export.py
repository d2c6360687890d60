"""Exporters: Chrome ``trace_event`` JSON, metrics JSON, summary text,
and :func:`write_artifact`, the one atomic writer every file artifact
of the package goes through.

The Chrome trace format (loadable in Perfetto or ``chrome://tracing``)
is a JSON object with a ``traceEvents`` list. We emit:

* ``"X"`` *complete* events — one enclosing span per traced transaction
  plus one child span per derived segment, on ``pid`` = the
  transactions process, ``tid`` = the base transaction id. Child spans
  of one transaction share boundaries, so sorting by ``(ts, -dur)``
  yields a well-nested stack (validated by
  :func:`validate_chrome_trace`). Free-standing component spans (link
  serialization, engine run loop) get one ``pid`` per track.
* ``"I"`` *instant* events — replay requests, fault drops/corruptions.
* ``"M"`` *metadata* events — human-readable process/thread names.

Timestamps are microseconds of simulated time (``sim_seconds * 1e6``).

Stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import Any, Dict, Iterable, List, Union

from .metrics import MetricsRegistry
from .summary import summary_from_snapshot
from .trace import Tracer

__all__ = [
    "write_artifact",
    "json_lines",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "write_metrics_json",
    "render_metrics_summary",
]

_TXN_PID = 1  # the per-transaction process; component tracks follow
_US = 1e6  # simulated seconds -> trace microseconds


def _meta(pid: int, name: str) -> Dict[str, Any]:
    return {
        "ph": "M",
        "name": "process_name",
        "pid": pid,
        "tid": 0,
        "ts": 0,
        "args": {"name": name},
    }


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Convert a tracer's records into a Chrome ``trace_event`` document."""
    events: List[Dict[str, Any]] = [_meta(_TXN_PID, "transactions")]
    track_pids: Dict[str, int] = {}

    def pid_for(track: str) -> int:
        pid = track_pids.get(track)
        if pid is None:
            pid = _TXN_PID + 1 + len(track_pids)
            track_pids[track] = pid
            events.append(_meta(pid, track))
        return pid

    for record in sorted(tracer.transactions.values(), key=lambda r: r.start):
        segments = record.segments()
        if not segments:
            continue
        tid = record.base_id
        events.append(
            {
                "ph": "X",
                "name": f"txn:{record.op}",
                "cat": "txn",
                "pid": _TXN_PID,
                "tid": tid,
                "ts": record.start * _US,
                "dur": record.latency * _US,
                "args": {
                    "txn": record.base_id,
                    "op": record.op,
                    "bytes": record.bytes,
                    "origin": record.origin,
                    "done": record.done,
                },
            }
        )
        for stage, t0, t1, where in segments:
            events.append(
                {
                    "ph": "X",
                    "name": stage,
                    "cat": "stage",
                    "pid": _TXN_PID,
                    "tid": tid,
                    "ts": t0 * _US,
                    "dur": (t1 - t0) * _US,
                    "args": {"txn": record.base_id, "where": where},
                }
            )

    for span in tracer.spans:
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": "component",
                "pid": pid_for(span.track),
                "tid": 0,
                "ts": span.start * _US,
                "dur": (span.end - span.start) * _US,
                "args": dict(span.args),
            }
        )
    for inst in tracer.instants:
        events.append(
            {
                "ph": "I",
                "name": inst.name,
                "cat": "event",
                "pid": pid_for(inst.track),
                "tid": 0,
                "ts": inst.start * _US,
                "s": "t",
                "args": dict(inst.args),
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.obs",
            "sample_every": tracer.sample_every,
            "transactions": len(tracer.transactions),
            "dropped_by_sampling": tracer.dropped_by_sampling,
        },
    }


def write_artifact(path: str, data: Any) -> str:
    """Write one artifact file atomically; returns ``path``.

    A ``str`` is written as is; any other value in the one canonical
    JSON form (``indent=2``, sorted keys, trailing newline), so reruns
    of a deterministic experiment diff byte-for-byte. The bytes go to a
    temp file in the target directory (created if missing), which then
    replaces ``path``: readers never see a torn file, and a failed
    write leaves the previous file intact and no temp file behind.
    """
    if not isinstance(data, str):
        data = json.dumps(data, indent=2, sort_keys=True) + "\n"
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # A uuid name opened with open(): tempfile's secure temp files are
    # created 0600, whereas artifacts should get the umask's mode.
    tmp_path = os.path.join(directory, f".tmp-{uuid.uuid4().hex}")
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def json_lines(records: Iterable[Any]) -> str:
    """JSON-lines text: one compact sorted-key object per line."""
    return "".join(json.dumps(record, sort_keys=True) + "\n"
                   for record in records)


def write_chrome_trace(tracer: Tracer, path: str) -> Dict[str, Any]:
    document = chrome_trace(tracer)
    write_artifact(path, document)
    return document


TraceDoc = Union[Dict[str, Any], List[Dict[str, Any]]]


def validate_chrome_trace(document: TraceDoc) -> int:
    """Validate a Chrome-trace document; returns the event count.

    Checks, raising :class:`ValueError` on the first violation:

    * required keys ``ph`` / ``ts`` / ``pid`` / ``name`` on every event,
      with numeric non-negative ``ts`` (and ``dur`` on ``"X"`` events);
    * monotonic span nesting per ``(pid, tid)`` lane: sorted by
      ``(ts, -dur)``, every complete event must close no later than the
      enclosing event still on the stack.
    """
    if isinstance(document, dict):
        events = document.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("document has no traceEvents list")
    else:
        events = document
    if not events:
        raise ValueError("trace contains no events")

    lanes: Dict[Any, List[Dict[str, Any]]] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index} is not an object")
        for key in ("ph", "ts", "pid", "name"):
            if key not in event:
                raise ValueError(f"event {index} missing required key {key!r}")
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {index} has bad ts: {ts!r}")
        if event["ph"] == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {index} ({event['name']}) bad dur")
            lanes.setdefault((event["pid"], event.get("tid", 0)), []).append(
                event
            )

    for lane, lane_events in lanes.items():
        lane_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[float] = []  # open-span end times, outermost first
        for event in lane_events:
            start = event["ts"]
            end = start + event["dur"]
            while stack and start >= stack[-1] - 1e-9:
                stack.pop()
            if stack and end > stack[-1] + 1e-9:
                raise ValueError(
                    f"span {event['name']!r} on lane {lane} overlaps its "
                    f"parent: ends {end} > {stack[-1]}"
                )
            stack.append(end)
    return len(events)


def write_metrics_json(registry: MetricsRegistry, path: str) -> Dict[str, float]:
    snapshot = registry.snapshot()
    write_artifact(path, snapshot)
    return snapshot


def render_metrics_summary(
    registry: MetricsRegistry, title: str = "metrics"
) -> str:
    """End-of-run summary table for a registry (collects first)."""
    return summary_from_snapshot(title, registry.snapshot()).render()
