"""Sharded simulation: rack domains under conservative time sync.

One :class:`~repro.sim.engine.Simulator` owns one global clock, which
pins a whole run to one core no matter how many racks it models. This
module partitions a run into **domains** — each with its own simulator
(the PR 1 fast path, unchanged) — that exchange timestamped messages
through the coordinator, Chandy–Misra style:

* Time is cut into fixed **windows** of width ``lookahead``. Window
  ``k`` covers ``((k)·W, (k+1)·W]``; ends are computed by
  multiplication (never accumulation) so every process sees the exact
  same float boundaries.
* Every inter-domain message must arrive at least ``lookahead`` after
  it was sent. A message sent during window ``k`` (``send_t > k·W``)
  therefore has ``deliver_t > (k+1)·W`` — it can never land inside a
  window a neighbor has already simulated. That is the conservative
  safety invariant; :class:`SyncError` is raised loudly if a program
  violates it.
* Each round, every domain advances to the same window end with its
  sorted inbox; the coordinator then routes the round's outboxes.
  Inboxes are sorted by the stable ``(deliver_t, src, seq)`` key, so
  delivery order is independent of which shard produced a message
  first — results are deterministic regardless of scheduling, and the
  parallel path is byte-identical to the serial one by construction.

Parallelism uses one single-worker ``ProcessPoolExecutor`` per shard
(domain ``i`` lives on shard ``i % jobs``). A single-worker pool pins
its domains to one long-lived process, whose module state holds the
(unpicklable) live simulators between rounds; only the small message
lists cross process boundaries. Worker bootstrap (tracing hygiene)
is shared with the sweep pool via :mod:`repro.sweep.bootstrap`.

Domain programs are built from ``(target, kwargs)`` pairs, where
``target`` is a ``py:module:function`` string resolved with
:func:`repro.sweep.resolve_target` (builders must be importable in
worker processes). A program must provide::

    advance(window_end, inbox) -> list[DomainMessage]   # one window
    finalize() -> dict                                  # artifacts

``advance`` schedules each inbox message at its ``deliver_t``, runs
its simulator to ``window_end``, and returns the messages emitted
during the window — each stamped with a per-domain monotonically
increasing ``seq``. ``finalize`` returns a picklable, deterministic
artifact (no wall-clock values).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .engine import SimulationError

__all__ = ["DomainMessage", "DomainCoordinator", "SyncError"]


class SyncError(SimulationError):
    """Conservative-synchronization contract violation."""

    code = "sim/domain-sync"


class DomainMessage:
    """One timestamped inter-domain message.

    ``src``/``dst`` are domain indices; ``seq`` is the sender's own
    monotonically increasing counter (the tie-breaker that makes
    same-timestamp delivery deterministic); ``payload`` must be a
    small picklable value.
    """

    __slots__ = ("src", "dst", "send_t", "deliver_t", "seq", "kind",
                 "payload")

    def __init__(self, src: int, dst: int, send_t: float, deliver_t: float,
                 seq: int, kind: str, payload: Any = None):
        self.src = src
        self.dst = dst
        self.send_t = send_t
        self.deliver_t = deliver_t
        self.seq = seq
        self.kind = kind
        self.payload = payload

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.deliver_t, self.src, self.seq)

    def __getstate__(self):
        return (self.src, self.dst, self.send_t, self.deliver_t, self.seq,
                self.kind, self.payload)

    def __setstate__(self, state):
        (self.src, self.dst, self.send_t, self.deliver_t, self.seq,
         self.kind, self.payload) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DomainMessage({self.kind!r}, {self.src}->{self.dst}, "
            f"t={self.send_t:g}->{self.deliver_t:g}, seq={self.seq})"
        )


def _build_program(target: str, kwargs: Dict[str, Any]) -> Any:
    from ..sweep.engine import resolve_target

    return resolve_target(target)(**kwargs)


# -- worker-process side ----------------------------------------------------------

#: Live domain programs hosted by this worker process. Single-worker
#: executors guarantee every task for a shard runs in the same process,
#: so programs (holding unpicklable simulator state) persist here
#: between rounds.
_WORKER_PROGRAMS: Dict[int, Any] = {}


def _shard_build(items: List[Tuple[int, str, Dict[str, Any]]]) -> float:
    started = time.perf_counter()
    for index, target, kwargs in items:
        _WORKER_PROGRAMS[index] = _build_program(target, kwargs)
    return time.perf_counter() - started


def _shard_advance(
    indices: List[int],
    window_end: float,
    inboxes: List[List[DomainMessage]],
) -> Tuple[List[List[DomainMessage]], float]:
    started = time.perf_counter()
    outboxes = [
        _WORKER_PROGRAMS[index].advance(window_end, inbox)
        for index, inbox in zip(indices, inboxes)
    ]
    return outboxes, time.perf_counter() - started


def _shard_finalize(indices: List[int]) -> List[Dict[str, Any]]:
    artifacts = [_WORKER_PROGRAMS[index].finalize() for index in indices]
    for index in indices:
        del _WORKER_PROGRAMS[index]
    return artifacts


# -- shard drivers ----------------------------------------------------------------


class _LocalShard:
    """All domains in-process: the serial reference semantics."""

    def __init__(self, indices: List[int],
                 builders: Sequence[Tuple[str, Dict[str, Any]]]):
        self.indices = indices
        self._items = [(i, builders[i][0], builders[i][1]) for i in indices]
        self.busy_s = 0.0

    def start_build(self) -> None:
        self.busy_s += _shard_build(self._items)

    def finish_build(self) -> None:
        pass

    def start_advance(self, window_end: float,
                      inboxes: List[List[DomainMessage]]) -> None:
        self._result = _shard_advance(self.indices, window_end, inboxes)

    def finish_advance(self) -> List[List[DomainMessage]]:
        outboxes, elapsed = self._result
        self.busy_s += elapsed
        return outboxes

    def finalize(self) -> List[Dict[str, Any]]:
        return _shard_finalize(self.indices)

    def shutdown(self) -> None:
        pass


class _PoolShard:
    """One shard of domains pinned to one single-worker pool process."""

    def __init__(self, indices: List[int],
                 builders: Sequence[Tuple[str, Dict[str, Any]]]):
        from concurrent.futures import ProcessPoolExecutor

        from ..sweep.bootstrap import pool_worker_init

        self.indices = indices
        self._items = [(i, builders[i][0], builders[i][1]) for i in indices]
        self.busy_s = 0.0
        self.pool = ProcessPoolExecutor(
            max_workers=1,
            initializer=pool_worker_init,
        )
        self._future = None

    def start_build(self) -> None:
        self._future = self.pool.submit(_shard_build, self._items)

    def finish_build(self) -> None:
        self.busy_s += self._future.result()

    def start_advance(self, window_end: float,
                      inboxes: List[List[DomainMessage]]) -> None:
        self._future = self.pool.submit(
            _shard_advance, self.indices, window_end, inboxes
        )

    def finish_advance(self) -> List[List[DomainMessage]]:
        outboxes, elapsed = self._future.result()
        self.busy_s += elapsed
        return outboxes

    def finalize(self) -> List[Dict[str, Any]]:
        return self.pool.submit(_shard_finalize, self.indices).result()

    def shutdown(self) -> None:
        self.pool.shutdown()


# -- coordinator ------------------------------------------------------------------


class DomainCoordinator:
    """Runs domain programs in lockstep windows, routing their messages.

    ``builders`` is one ``(target, kwargs)`` pair per domain (domain
    index = list position). ``lookahead`` is the window width — the
    minimum inter-domain message latency. ``horizon`` is the sim time
    up to which every domain must advance; the coordinator keeps
    running whole windows past it while messages remain in flight
    (bounded by ``max_drain_rounds``).

    ``jobs`` > 1 shards the domains over single-worker process pools;
    the results are byte-identical to ``jobs=1`` because both paths
    execute the exact same (window, sorted-inbox) sequence per domain.
    """

    def __init__(
        self,
        builders: Sequence[Tuple[str, Dict[str, Any]]],
        lookahead: float,
        horizon: float,
        jobs: int = 1,
        max_drain_rounds: int = 64,
    ):
        if not builders:
            raise ValueError("need at least one domain builder")
        if lookahead <= 0:
            raise ValueError(f"lookahead must be > 0, got {lookahead!r}")
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon!r}")
        self.builders = list(builders)
        self.lookahead = float(lookahead)
        self.horizon = float(horizon)
        self.jobs = max(1, int(jobs))
        self.max_drain_rounds = max_drain_rounds
        self.rounds = 0
        self.messages_routed = 0
        self.wall_s = 0.0
        self.busy_s = 0.0

    # -- sharding ---------------------------------------------------------------
    def _make_shards(self) -> List[Any]:
        count = len(self.builders)
        jobs = min(self.jobs, count)
        if jobs <= 1:
            return [_LocalShard(list(range(count)), self.builders)]
        shards = []
        for shard_index in range(jobs):
            indices = [i for i in range(count) if i % jobs == shard_index]
            shards.append(_PoolShard(indices, self.builders))
        return shards

    # -- execution --------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        started = time.perf_counter()
        count = len(self.builders)
        shards = self._make_shards()
        try:
            for shard in shards:
                shard.start_build()
            for shard in shards:
                shard.finish_build()

            pending: List[List[DomainMessage]] = [[] for _ in range(count)]
            in_flight = 0
            round_index = 0
            max_rounds = (
                int(self.horizon / self.lookahead) + 1 + self.max_drain_rounds
            )
            while in_flight or round_index * self.lookahead < self.horizon:
                if round_index >= max_rounds:
                    raise SyncError(
                        f"{in_flight} message(s) still in flight after "
                        f"{round_index} rounds (horizon {self.horizon:g}, "
                        f"lookahead {self.lookahead:g}) — drain did not "
                        f"converge"
                    )
                # Exact same float for every shard: multiply, never
                # accumulate.
                window_end = (round_index + 1) * self.lookahead

                inboxes: List[List[DomainMessage]] = []
                for domain in range(count):
                    due = [m for m in pending[domain]
                           if m.deliver_t <= window_end]
                    if due:
                        pending[domain] = [
                            m for m in pending[domain]
                            if m.deliver_t > window_end
                        ]
                        due.sort(key=DomainMessage.sort_key)
                        in_flight -= len(due)
                    inboxes.append(due)

                for shard in shards:
                    shard.start_advance(
                        window_end, [inboxes[i] for i in shard.indices]
                    )
                outboxes: Dict[int, List[DomainMessage]] = {}
                for shard in shards:
                    for index, outbox in zip(
                        shard.indices, shard.finish_advance()
                    ):
                        outboxes[index] = outbox

                for domain in range(count):
                    for message in outboxes[domain]:
                        self._validate(message, domain, window_end, count)
                        pending[message.dst].append(message)
                        in_flight += 1
                        self.messages_routed += 1
                round_index += 1

            self.rounds = round_index
            artifacts: List[Optional[Dict[str, Any]]] = [None] * count
            for shard in shards:
                for index, artifact in zip(shard.indices, shard.finalize()):
                    artifacts[index] = artifact
        finally:
            for shard in shards:
                shard.shutdown()

        self.busy_s = sum(shard.busy_s for shard in shards)
        self.wall_s = time.perf_counter() - started
        return {
            "artifacts": artifacts,
            "rounds": self.rounds,
            "messages": self.messages_routed,
            # Provenance only — callers must keep wall-clock values and
            # the job count OUT of byte-compared artifacts.
            "jobs": min(self.jobs, count),
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
        }

    def _validate(self, message: DomainMessage, domain: int,
                  window_end: float, count: int) -> None:
        if message.src != domain:
            raise SyncError(
                f"domain {domain} emitted a message stamped src="
                f"{message.src}"
            )
        if not 0 <= message.dst < count:
            raise SyncError(
                f"message from domain {domain} addressed to unknown "
                f"domain {message.dst}"
            )
        # One-ulp slop: (send_t + lookahead) - send_t can round a hair
        # below lookahead. Safety rests on the window check below, not
        # on this contract check, so tolerate float rounding here.
        latency = message.deliver_t - message.send_t
        if latency < self.lookahead * (1.0 - 1e-12) - 1e-12:
            raise SyncError(
                f"message {message.kind!r} from domain {domain} has "
                f"latency {latency:g} < lookahead {self.lookahead:g}"
            )
        if message.deliver_t <= window_end:
            raise SyncError(
                f"message {message.kind!r} from domain {domain} would "
                f"arrive at {message.deliver_t:g}, inside the window "
                f"ending {window_end:g} its neighbor already simulated"
            )
