"""Per-layer metrics of one traced iteration.

Host times come from the :class:`~perfbench.ledger.Ledger`; counts come
from the program's metrics registry (``register_observability`` for the
datapath testbeds, the per-rack snapshots in the cluster artifact) and
from the ledger's call counts where the registry has no counter. Counts
are simulated quantities, so they repeat exactly for a seed; host times
do not.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.obs.metrics import parse_qualified

__all__ = ["split_values", "derive"]

#: Ledger call-count and inclusive-time keys (``module:Qual.name``).
ATTACH = "repro.control.orchestrator:ControlPlane.attach"
DETACH = "repro.control.orchestrator:ControlPlane.detach"
PLAN = "repro.control.planner:PathPlanner.plan"
SYNTHESIZE = "repro.cluster.trace:synthesize_trace"
ONLINE = "repro.osmodel.sections:SparseMemoryModel.online"
EMIT = "repro.obs.events:EventLog.emit"
DIGEST = "repro.accel.ops:frame_digest"
SCHEDULE = "repro.accel.ops:serialization_schedule"


class _Snapshot:
    """Sums of one registry snapshot by metric name and label match."""

    def __init__(self, snapshot: Dict[str, float]):
        self._series = [
            (*parse_qualified(qualified), value)
            for qualified, value in snapshot.items()
        ]

    def series(self, name: str, **labels: str):
        """(labels, value) of every series of ``name`` matching ``labels``."""
        return [
            (found, value) for metric, found, value in self._series
            if metric == name
            and all(found.get(k) == v for k, v in labels.items())
        ]

    def sum(self, name: str, **labels: str) -> float:
        return float(sum(value for _, value in self.series(name, **labels)))


def split_values(ledger: Any, observation: Any,
                 sample: Dict[str, float]) -> Tuple[Dict[str, float],
                                                    Dict[str, float]]:
    """(host times, counts) of one traced iteration."""
    layer = ledger.layer_self_s()
    times = {
        "sim.self_s": layer["sim"],
        "sim.resources_s": layer["sim.resources"],
        "opencapi.self_s": layer["opencapi"],
        "rmmu.self_s": layer["rmmu"],
        "routing.self_s": layer["routing"],
        "llc.self_s": layer["llc"],
        "endpoint.self_s": layer["endpoint"],
        "link.self_s": layer["link"],
        "mem.self_s": layer["mem"],
        "accel.self_s": layer["accel"],
        "control.self_s": layer["control"],
        "control.plan_s": ledger.inclusive_s(PLAN),
        "cluster.self_s": layer["cluster"],
        "cluster.trace_s": ledger.inclusive_s(SYNTHESIZE),
        "domains.self_s": layer["domains"],
        "osmodel.self_s": layer["osmodel"],
        "obs.self_s": layer["obs"],
        "testbed.self_s": layer["testbed"],
        "app.self_s": layer["app"],
        "trace.wall_s": ledger.wall_s,
    }

    snap = _Snapshot(observation.snapshot)
    extra = observation.extra
    # Per-link mean queue delays, weighted by the frames each link sent.
    delays = [
        (mean, snap.sum("link.frames_sent", **labels))
        for labels, mean in snap.series("link.queue_delay_mean_s")
    ]
    delayed_frames = sum(frames for _, frames in delays)
    counts = {
        "sim.events": sample["events"],
        "sim.sim_us": sample["sim_s"] * 1e6,
        "opencapi.txns": snap.sum("bus.loads") + snap.sum("bus.stores"),
        "rmmu.translations": snap.sum("rmmu.translations"),
        "rmmu.faults": snap.sum("rmmu.faults"),
        "routing.forwarded": snap.sum("routing.forwarded"),
        "routing.ch0_tx": snap.sum("routing.channel_tx", channel="0"),
        "routing.ch1_tx": snap.sum("routing.channel_tx", channel="1"),
        "llc.frames_built": snap.sum("llc.frames_built"),
        "llc.txns_sent": snap.sum("llc.txns_sent"),
        "llc.nops_padded": snap.sum("llc.nops_padded"),
        "llc.replays_requested": snap.sum("llc.replays_requested"),
        "llc.replays_served": snap.sum("llc.replays_served"),
        "llc.frames_corrupted": snap.sum("llc.frames_corrupted"),
        "llc.credit_stalls": snap.sum("llc.credit_stalls"),
        "endpoint.requests": snap.sum("endpoint.requests"),
        "endpoint.served": snap.sum("endpoint.served"),
        "endpoint.retries": snap.sum("endpoint.retries"),
        "endpoint.timeouts": snap.sum("endpoint.timeouts"),
        "endpoint.sim_rtt_p50_ns": extra.get("rtt_p50_s", 0.0) * 1e9,
        "endpoint.sim_rtt_p99_ns": extra.get("rtt_p99_s", 0.0) * 1e9,
        "link.frames_sent": snap.sum("link.frames_sent"),
        "link.bytes_sent": snap.sum("link.bytes_sent"),
        "link.sim_utilization": max(
            (value for _, value in snap.series("link.utilization")),
            default=0.0,
        ),
        "link.sim_queue_delay_ns": (
            sum(mean * frames for mean, frames in delays)
            / delayed_frames * 1e9 if delayed_frames else 0.0
        ),
        "faults.dropped": snap.sum("net.faults.frames_dropped"),
        "faults.corrupted": snap.sum("net.faults.frames_corrupted"),
        "dram.reads": snap.sum("dram.reads"),
        "dram.writes": snap.sum("dram.writes"),
        "dram.banks_peak": float(max(
            (peak for name, peak in ledger.resource_peaks.items()
             if name.endswith(".banks")),
            default=0,
        )),
        "accel.frame_digest_calls": ledger.calls(DIGEST),
        "accel.schedule_calls": ledger.calls(SCHEDULE),
        "control.attaches": ledger.calls(ATTACH),
        "control.detaches": ledger.calls(DETACH),
        "control.plans": ledger.calls(PLAN),
        "cluster.trace_syntheses": ledger.calls(SYNTHESIZE),
        "cluster.tasks": extra.get("tasks", 0),
        "cluster.borrows": extra.get("borrows", 0),
        "cluster.grants": extra.get("grants", 0),
        "cluster.denies": extra.get("denies", 0),
        "domains.rounds": extra.get("rounds", 0),
        "domains.messages": extra.get("messages", 0),
        "osmodel.sections_onlined": ledger.calls(ONLINE),
        "obs.journal_events": ledger.calls(EMIT),
    }
    return times, counts


def derive(result: Dict[str, float]) -> None:
    """Add the ratios, computed from the medians and counts in ``result``."""

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    result["opencapi.s_per_txn"] = ratio(
        result["opencapi.self_s"], result["opencapi.txns"]
    )
    result["llc.s_per_frame"] = ratio(
        result["llc.self_s"], result["llc.frames_built"]
    )
    result["llc.txns_per_frame"] = ratio(
        result["llc.txns_sent"], result["llc.frames_built"]
    )
