"""Control-plane self-healing: health tracking and failover execution.

The datapath reports failures upward (a
:class:`~repro.core.endpoints.ComputeEndpoint` that exhausts its retry
budget raises :class:`~repro.errors.RemoteMemoryError` and notifies its
failure listeners); the :class:`HealthMonitor` turns those signals into
attachment health state and, on request, executes a **failover**: force
detach from the dead lender, re-plan onto a surviving one, re-attach,
and replay the borrower-side journal so the remote buffer's contents
survive the lender byte-for-byte.

Failover is deliberately *not* run from inside the failure listener:
listeners fire while the simulation loop is executing the failing
transaction, and a failover drives the simulator itself (settle windows
after re-attach). The driving code catches ``RemoteMemoryError`` outside
``sim.run`` and then calls :meth:`HealthMonitor.failover`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.flow import base_network_id
from ..errors import RemoteMemoryError
from ..obs import events as _events
from ..obs import trace as _trace
from .orchestrator import Attachment, UnknownAttachmentError

__all__ = ["HealthState", "FailoverReport", "HealthMonitor"]


class HealthState(enum.Enum):
    """Per-attachment health, as reported on ``GET /v1/health``."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DEAD = "dead"


@dataclass(frozen=True)
class FailoverReport:
    """Outcome of one executed failover."""

    old_attachment_id: int
    new_attachment: Attachment
    old_memory_host: str
    new_memory_host: str
    recovery_time_s: float
    replayed_bytes: int

    def describe(self) -> Dict:
        return {
            "old_attachment": self.old_attachment_id,
            "new_attachment": self.new_attachment.attachment_id,
            "old_memory_host": self.old_memory_host,
            "new_memory_host": self.new_memory_host,
            "recovery_time_s": self.recovery_time_s,
            "replayed_bytes": self.replayed_bytes,
        }


@dataclass
class _Watch:
    attachment: Attachment
    buffer: Optional[object] = None  # ResilientBuffer, if journaled
    state: HealthState = HealthState.HEALTHY
    failures: int = 0
    last_error: Optional[str] = None

    def describe(self) -> Dict:
        return {
            "id": self.attachment.attachment_id,
            "state": self.state.value,
            "failures": self.failures,
            "compute_host": self.attachment.compute_host,
            "memory_host": self.attachment.memory_host,
            "last_error": self.last_error,
        }


class HealthMonitor:
    """Watches attachments for datapath failures and heals them.

    ``dead_after_failures`` is the escalation threshold: below it a
    failing attachment is DEGRADED (transient loss still being retried);
    at or above it the attachment is DEAD and eligible for failover.
    """

    def __init__(self, testbed, dead_after_failures: int = 1):
        self.testbed = testbed
        self.dead_after_failures = max(1, int(dead_after_failures))
        self._watches: Dict[int, _Watch] = {}
        self._wired_endpoints: set = set()
        self.reports: List[FailoverReport] = []
        # counters (registered via register_metrics)
        self.failures_observed = 0
        self.failovers = 0
        self.last_recovery_time_s = 0.0
        self.replayed_bytes = 0

    # -- wiring --------------------------------------------------------------------
    def watch(self, attachment: Attachment, buffer=None) -> None:
        """Track an attachment; ``buffer`` enables journal replay."""
        self._watches[attachment.attachment_id] = _Watch(
            attachment=attachment, buffer=buffer
        )
        endpoint = self.testbed.node(attachment.compute_host).device.compute
        if id(endpoint) not in self._wired_endpoints:
            endpoint.add_failure_listener(self._on_endpoint_failure)
            self._wired_endpoints.add(id(endpoint))

    # -- failure intake ------------------------------------------------------------
    def _on_endpoint_failure(
        self, endpoint, error: RemoteMemoryError
    ) -> None:
        failed_network = error.details.get("network_id")
        if failed_network is None:
            return
        flow_id = base_network_id(failed_network)
        for watch in self._watches.values():
            if base_network_id(watch.attachment.flow.wire_network_id) == flow_id:
                self._record_failure(watch, str(error))
                return

    def report_failure(
        self, attachment_id: int, reason: str = "reported"
    ) -> None:
        """Out-of-band failure report (e.g. from an operator or probe)."""
        watch = self._watch(attachment_id)
        self._record_failure(watch, reason)

    def _record_failure(self, watch: _Watch, reason: str) -> None:
        watch.failures += 1
        watch.last_error = reason
        self.failures_observed += 1
        watch.state = (
            HealthState.DEAD
            if watch.failures >= self.dead_after_failures
            else HealthState.DEGRADED
        )
        if _trace.ENABLED:
            _trace.instant(
                f"health.{watch.state.value}",
                self.testbed.sim.now,
                "control",
                attachment=watch.attachment.attachment_id,
            )
        if _events.ENABLED:
            _events.emit(
                self.testbed.sim.now,
                "health.fault",
                attachment=watch.attachment.attachment_id,
                state=watch.state.value,
                failures=watch.failures,
                reason=reason,
            )

    # -- queries --------------------------------------------------------------------
    def _watch(self, attachment_id: int) -> _Watch:
        try:
            return self._watches[attachment_id]
        except KeyError:
            raise UnknownAttachmentError(
                f"attachment {attachment_id} is not monitored",
                attachment_id=attachment_id,
            ) from None

    def state_of(self, attachment_id: int) -> HealthState:
        return self._watch(attachment_id).state

    def describe(self) -> Dict:
        states = [w.state for w in self._watches.values()]
        overall = (
            "ok"
            if all(s is HealthState.HEALTHY for s in states)
            else "degraded"
        )
        return {
            "status": overall,
            "attachments": [w.describe() for w in self._watches.values()],
            "failovers": [r.describe() for r in self.reports],
        }

    # -- recovery -------------------------------------------------------------------
    def failover(self, attachment_id: int) -> FailoverReport:
        """Move a dead attachment to a surviving lender.

        Quarantines the journaled buffer (unmaps its pages so the donor
        can be force-offlined), force-detaches through the control
        plane, re-plans excluding the failed lender, re-attaches, and
        replays the write journal into the new lender's memory.
        """
        watch = self._watch(attachment_id)
        old = watch.attachment
        sim = self.testbed.sim
        started = sim.now

        buffer = watch.buffer
        if buffer is not None:
            buffer.quarantine()
        self.testbed.detach(old, force=True)

        plane = self.testbed.plane
        donor = plane.planner.pick_donor(
            old.compute_host, old.size, exclude=(old.memory_host,)
        )
        new = self.testbed.attach(
            old.compute_host, old.size, memory_host=donor
        )

        replayed = 0
        if buffer is not None:
            replayed = buffer.rebind(self.testbed, new)

        recovery = sim.now - started
        report = FailoverReport(
            old_attachment_id=attachment_id,
            new_attachment=new,
            old_memory_host=old.memory_host,
            new_memory_host=donor,
            recovery_time_s=recovery,
            replayed_bytes=replayed,
        )
        self.reports.append(report)
        self.failovers += 1
        self.last_recovery_time_s = recovery
        self.replayed_bytes += replayed

        # The new attachment starts a fresh health history.
        del self._watches[attachment_id]
        self.watch(new, buffer=buffer)

        if _trace.ENABLED:
            _trace.span(
                "health.failover",
                started,
                sim.now,
                "control",
                old=attachment_id,
                new=new.attachment_id,
                donor=donor,
            )
        if _events.ENABLED:
            _events.emit(
                sim.now,
                "health.failover",
                attachment=attachment_id,
                new_attachment=new.attachment_id,
                old_memory_host=old.memory_host,
                new_memory_host=donor,
                recovery_time_s=recovery,
                replayed_bytes=replayed,
            )
        return report

    # -- observability ---------------------------------------------------------------
    def register_metrics(self, registry, **labels) -> None:
        def collect(reg):
            base = dict(component="health", **labels)
            reg.gauge("health.failures_observed", **base).set(
                self.failures_observed
            )
            reg.gauge("health.failovers", **base).set(self.failovers)
            reg.gauge("health.last_recovery_time_s", **base).set(
                self.last_recovery_time_s
            )
            reg.gauge("health.replayed_bytes", **base).set(
                self.replayed_bytes
            )
            dead = sum(
                1
                for w in self._watches.values()
                if w.state is HealthState.DEAD
            )
            reg.gauge("health.attachments_dead", **base).set(dead)
            reg.gauge("health.attachments_watched", **base).set(
                len(self._watches)
            )

        registry.add_collector(collect)
