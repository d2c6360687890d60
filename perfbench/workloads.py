"""The benchmark's three workloads.

Each workload is a closed loop in simulated time, run from one process
with no worker processes or threads. ``setup`` builds everything that
comes before the first data operation and is timed as ``setup_s``;
``run`` is the measured phase; ``observe`` reads the simulated outputs
after the clock has stopped and fingerprints them.

Why these three:

* ``stream-burst`` is the bandwidth-bound burst path (LLC frame
  packing, digest and CRC, the link pump, DRAM burst windows, accel
  kernels); per-line bus, RMMU and routing costs are spread over
  16-line bursts and the control plane attaches once.
* ``line-mix`` is the latency-bound per-transaction path: single-line
  loads and stores from 16 simulated threads on a bonded attach, with
  a lossy second channel, so bus dispatch, RMMU translation, weighted
  round-robin over both channels, endpoint bookkeeping and LLC replay
  all run per line.
* ``cluster-replay`` is the control-plane path (path planning, hot-plug,
  trace synthesis, rack-domain sync) with a nearly idle datapath.

Left out on purpose: memcached/ETC, YCSB/VoltDB and Elasticsearch are
closed-form models that touch no simulated layer (all figures
regenerate in well under a second); the HTTP loadtest opens one TCP
connection per request, hundreds at once, which a two-CPU host cannot
serve steadily, and its planner and orchestrator work is already
covered by ``cluster-replay``.

Inputs come only from the seed: the byte blob, the per-thread op lists,
the fault-injector stream and ``ClusterConfig.seed``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import (
    TASK_CLASSES, ClusterConfig, build_rack_domain, run_cluster,
)
from repro.mem import MIB
from repro.mem.address import CACHELINE_BYTES
from repro.net.faults import FaultInjector
from repro.obs import MetricsRegistry
from repro.opencapi.transactions import reset_txn_ids
from repro.osmodel import PagePolicy
from repro.sim.rng import SeededRNG
from repro.testbed import RemoteBuffer, Testbed

__all__ = ["WORKLOADS", "Outcome", "Observation"]


@dataclass
class Outcome:
    """What one measured phase did: work units and operation tallies."""

    work: float
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)


@dataclass
class Observation:
    """Simulated outputs of one iteration, read after timing stopped."""

    fingerprint: str
    snapshot: Dict[str, float]
    extra: Dict[str, float]


def _sha256(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def _datapath_observation(testbed: Testbed) -> Observation:
    registry = MetricsRegistry("perfbench")
    testbed.register_observability(registry)
    snapshot = registry.snapshot()
    rtt = testbed.node0.device.compute.rtt
    return Observation(
        fingerprint=_sha256(
            repr(testbed.sim.now), json.dumps(snapshot, sort_keys=True)
        ),
        snapshot=snapshot,
        extra={
            "rtt_p50_s": rtt.percentile(50) if rtt.count else 0.0,
            "rtt_p99_s": rtt.percentile(99) if rtt.count else 0.0,
        },
    )


def _remote_buffer(testbed: Testbed, size: int, bonded: bool):
    attachment = testbed.attach(
        "node0", size, memory_host="node1", bonded=bonded
    )
    return RemoteBuffer.allocate(
        testbed.node0,
        size,
        policy=PagePolicy.BIND,
        numa_nodes=[attachment.plan.numa_node_id],
    )


@dataclass
class DatapathState:
    testbed: Testbed
    buffer: RemoteBuffer
    build_s: float
    attach_s: float


class StreamBurst:
    """Sequential write of seeded bytes, then a full read-back."""

    name = "stream-burst"
    unit = "MiB"
    SIZE = 2 * MIB
    #: One operation is one blocking write or read of a 64 KiB page.
    CHUNK = 64 * 1024

    def __init__(self, seed: int):
        self.blob = random.Random(seed).randbytes(self.SIZE)

    def setup(self) -> DatapathState:
        reset_txn_ids()
        started = perf_counter()
        testbed = Testbed()
        built = perf_counter()
        buffer = _remote_buffer(testbed, self.SIZE, bonded=False)
        return DatapathState(
            testbed, buffer, built - started, perf_counter() - built
        )

    def run(self, state: DatapathState, ledger=None) -> Outcome:
        buffer, blob, chunk = state.buffer, self.blob, self.CHUNK
        outcome = Outcome(work=2 * self.SIZE / MIB, attempted=0, failed=0)
        for offset in range(0, self.SIZE, chunk):
            outcome.attempted += 1
            try:
                buffer.write(offset, blob[offset : offset + chunk])
            except Exception as error:  # counted, never swallowed silently
                _fail(outcome, f"write@{offset}", error)
        for offset in range(0, self.SIZE, chunk):
            outcome.attempted += 1
            try:
                data = buffer.read(offset, chunk)
            except Exception as error:
                _fail(outcome, f"read@{offset}", error)
                continue
            if data != blob[offset : offset + chunk]:
                _fail(outcome, f"read@{offset}", "bytes differ from written")
        return outcome

    def observe(self, state: DatapathState) -> Observation:
        return _datapath_observation(state.testbed)


class LineMix:
    """16 threads of single-line loads and stores on a bonded attach."""

    name = "line-mix"
    unit = "ops"
    THREADS = 16
    #: 16 000 ops per iteration: enough lossy-channel faults that the
    #: host work per op varies by about 1% between seeds.
    OPS_PER_THREAD = 1000
    WINDOW = 4 * MIB
    LOAD_SHARE = 0.7
    DROP_PROBABILITY = 0.001
    CORRUPT_PROBABILITY = 0.002
    #: Channel whose node0->node1 direction drops and corrupts frames.
    LOSSY_CHANNEL = 1

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        lines = self.WINDOW // CACHELINE_BYTES
        #: Per thread: (line, bytes to store or None for a load). Thread
        #: t owns the lines congruent to t, so threads never share one.
        self.ops: List[List[Tuple[int, Optional[bytes]]]] = []
        for thread in range(self.THREADS):
            owned = range(thread, lines, self.THREADS)
            ops = []
            for _ in range(self.OPS_PER_THREAD):
                line = owned[rng.randrange(len(owned))]
                if rng.random() < self.LOAD_SHARE:
                    ops.append((line, None))
                else:
                    ops.append((line, rng.randbytes(CACHELINE_BYTES)))
            self.ops.append(ops)

    def setup(self) -> DatapathState:
        reset_txn_ids()
        started = perf_counter()
        injector = FaultInjector(
            rng=SeededRNG(self.seed).derive("line-mix-faults"),
            drop_probability=self.DROP_PROBABILITY,
            corrupt_probability=self.CORRUPT_PROBABILITY,
        )
        testbed = Testbed(fault_injectors={self.LOSSY_CHANNEL: injector})
        built = perf_counter()
        buffer = _remote_buffer(testbed, self.WINDOW, bonded=True)
        return DatapathState(
            testbed, buffer, built - started, perf_counter() - built
        )

    def run(self, state: DatapathState, ledger=None) -> Outcome:
        sim = state.testbed.sim
        bus = state.testbed.node0.bus
        mapping = state.buffer.mapping
        outcome = Outcome(
            work=self.THREADS * self.OPS_PER_THREAD, attempted=0, failed=0
        )
        thread = self._thread
        if ledger is not None:
            thread = ledger.wrap_process("app", thread)
        for ops in self.ops:
            sim.process(thread(bus, mapping, ops, outcome), name="line-mix")
        sim.run()
        return outcome

    @staticmethod
    def _thread(bus, mapping, ops, outcome: Outcome):
        # The shadow holds what each owned line must read back; donor
        # memory starts zeroed (the agent scrubs it at attach).
        shadow: Dict[int, bytes] = {}
        zero = bytes(CACHELINE_BYTES)
        for line, data in ops:
            outcome.attempted += 1
            address = mapping.address_for_offset(line * CACHELINE_BYTES)
            try:
                if data is None:
                    got = yield bus.load(address, CACHELINE_BYTES)
                else:
                    yield bus.store(address, data)
            except Exception as error:
                _fail(outcome, f"line {line}", error)
                continue
            if data is not None:
                shadow[line] = data
            elif got != shadow.get(line, zero):
                _fail(outcome, f"load line {line}", "differs from shadow")

    def observe(self, state: DatapathState) -> Observation:
        return _datapath_observation(state.testbed)


@dataclass
class ClusterState:
    build_s: float
    attach_s: float = 0.0
    artifact: Optional[Dict[str, Any]] = None


class ClusterReplay:
    """Four racks of four nodes replaying a 12 000-task trace, jobs=1."""

    name = "cluster-replay"
    unit = "tasks"
    MACHINES = 100
    TASKS = 12_000

    def __init__(self, seed: int):
        self.config = ClusterConfig(
            machines=self.MACHINES, tasks=self.TASKS, seed=seed
        )

    def setup(self) -> ClusterState:
        started = perf_counter()
        for rack in range(self.config.racks):
            build_rack_domain(rack, self.config)
        return ClusterState(build_s=perf_counter() - started)

    def run(self, state: ClusterState, ledger=None) -> Outcome:
        artifact, _runtime = run_cluster(self.config, jobs=1)
        state.artifact = artifact
        summary = artifact["summary"]
        outcome = Outcome(
            work=summary["tasks"], attempted=self.TASKS, failed=0
        )
        # Every trace task must be replayed and land in exactly one class.
        classified = sum(summary["classes"][name] for name in TASK_CLASSES)
        if classified != self.TASKS or summary["tasks"] != self.TASKS:
            _fail(outcome, "replay",
                  f"{classified} of {self.TASKS} tasks classified",
                  count=abs(self.TASKS - classified) or 1)
        return outcome

    def observe(self, state: ClusterState) -> Observation:
        artifact = state.artifact
        registry = MetricsRegistry("perfbench")
        for rack in artifact["racks"]:
            registry.merge_flat(rack["metrics"], domain=f"rack{rack['rack']}")
        counters = artifact["summary"]["counters"]
        return Observation(
            fingerprint=_sha256(json.dumps(artifact, sort_keys=True)),
            snapshot=registry.snapshot(),
            extra={
                "tasks": artifact["summary"]["tasks"],
                "borrows": counters.get("borrow_sent", 0),
                "grants": counters.get("grants_received", 0),
                "denies": counters.get("denies_received", 0),
                "rounds": artifact["rounds"],
                "messages": artifact["messages"],
            },
        )


def _fail(outcome: Outcome, where: str, error: Any, count: int = 1) -> None:
    outcome.failed += count
    if len(outcome.errors) < 5:
        outcome.errors.append(f"{where}: {error!r}")


WORKLOADS = {
    workload.name: workload
    for workload in (StreamBurst, LineMix, ClusterReplay)
}
