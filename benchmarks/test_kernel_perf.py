"""Perf-regression harness: optimized kernel + batched datapath.

Two families of measurements, both persisted to ``BENCH_kernel.json``
at the repository root so regressions are visible in review diffs:

* **Kernel microbenchmarks** — identical workload shapes run on the
  seed engine (kept verbatim in :mod:`baseline_engine`) and on
  :mod:`repro.sim.engine`. The headline shape is the bare-float timer
  loop (the hot path of every serializer/pump in the model); the other
  shapes keep the remaining dispatch paths honest.
* **STREAM wall-clock** — a bulk write+readback through the *real*
  testbed datapath (bus → M1 → RMMU → LLC framing → wire → donor DRAM)
  with batching on vs off. Simulated timestamps are bit-identical
  between the modes (see ``tests/test_bulk_equivalence.py``); this
  benchmark checks the batched mode buys real wall-clock.

Set ``KERNEL_PERF_SMOKE=1`` for a fast CI-sized run with relaxed
thresholds (the full run asserts the ISSUE targets: >=3x kernel,
>=2x STREAM).
"""

from __future__ import annotations

import json
import os
import time

import baseline_engine
from repro.mem import MIB
from repro.osmodel import PagePolicy
from repro.sim import engine as fast_engine
from repro.testbed import RemoteBuffer, Testbed

SMOKE = os.environ.get("KERNEL_PERF_SMOKE", "") not in ("", "0")

#: Results land at the repository root, next to ROADMAP.md.
RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_kernel.json",
)

# Required speedups (full run = the ISSUE acceptance targets; smoke
# keeps CI honest without being flaky on loaded shared runners).
KERNEL_TARGET = 2.0 if SMOKE else 3.0
STREAM_TARGET = 1.4 if SMOKE else 2.0


def _merge_results(section: str, payload: dict) -> None:
    results = {}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as handle:
            results = json.load(handle)
    results[section] = payload
    results["smoke"] = SMOKE
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _best_of(runs: int, fn):
    """Best-of-N wall-clock (minimum is the least noisy estimator)."""
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


# --------------------------------------------------------------------------
# Kernel microbenchmark shapes. Each returns (workload_fn, event_count)
# for one engine module; the workload is identical model behaviour
# expressed in each kernel's idiom.
# --------------------------------------------------------------------------

PROCS = 16 if SMOKE else 64
ITERS = 500 if SMOKE else 2000


def _timer_loop(module, bare_numbers):
    """P concurrent processes each burning N short timeouts."""
    sim = module.Simulator()

    def ticker():
        if bare_numbers:
            for _ in range(ITERS):
                yield 1e-9
        else:
            for _ in range(ITERS):
                yield sim.timeout(1e-9)

    for _ in range(PROCS):
        sim.process(ticker())
    sim.run()
    return PROCS * ITERS


def _spawn_join(module):
    """Fan-out/fan-in: parents repeatedly spawn and join children."""
    sim = module.Simulator()

    def child():
        yield sim.timeout(1e-9)
        return 1

    def parent():
        total = 0
        for _ in range(ITERS // 2):
            total += yield sim.process(child())
        return total

    for _ in range(PROCS):
        sim.process(parent())
    sim.run()
    return PROCS * (ITERS // 2) * 2


def _signal_pingpong(module):
    """Two processes handing a token back and forth through Signals."""
    sim = module.Simulator()
    pairs = PROCS // 2

    def player(mine, theirs, serve):
        if serve:
            theirs.fire(0)
        for _ in range(ITERS):
            value = yield mine
            theirs.fire(value + 1)

    for pair in range(pairs):
        ping = module.Signal(name=f"ping{pair}")
        pong = module.Signal(name=f"pong{pair}")
        sim.process(player(ping, pong, serve=False))
        sim.process(player(pong, ping, serve=True))
    sim.run()
    return pairs * ITERS * 2


def test_kernel_microbench_speedup():
    shapes = {
        "timer_loop_bare": (
            lambda: _timer_loop(baseline_engine, bare_numbers=False),
            lambda: _timer_loop(fast_engine, bare_numbers=True),
        ),
        "timer_loop_objects": (
            lambda: _timer_loop(baseline_engine, bare_numbers=False),
            lambda: _timer_loop(fast_engine, bare_numbers=False),
        ),
        "spawn_join": (
            lambda: _spawn_join(baseline_engine),
            lambda: _spawn_join(fast_engine),
        ),
        "signal_pingpong": (
            lambda: _signal_pingpong(baseline_engine),
            lambda: _signal_pingpong(fast_engine),
        ),
    }
    runs = 2 if SMOKE else 3
    report = {}
    for name, (run_baseline, run_fast) in shapes.items():
        events = run_fast()  # warm-up + event count
        baseline_s = _best_of(runs, run_baseline)
        optimized_s = _best_of(runs, run_fast)
        report[name] = {
            "events": events,
            "baseline_s": round(baseline_s, 6),
            "optimized_s": round(optimized_s, 6),
            "baseline_events_per_s": round(events / baseline_s),
            "optimized_events_per_s": round(events / optimized_s),
            "speedup": round(baseline_s / optimized_s, 3),
        }
        print(
            f"{name}: {events / baseline_s:,.0f} -> "
            f"{events / optimized_s:,.0f} events/s "
            f"({baseline_s / optimized_s:.2f}x)"
        )
    report["headline"] = report["timer_loop_bare"]["speedup"]
    report["target"] = KERNEL_TARGET
    _merge_results("kernel", report)
    assert report["headline"] >= KERNEL_TARGET, (
        f"kernel fast path {report['headline']:.2f}x < "
        f"{KERNEL_TARGET}x target"
    )
    # The non-headline shapes must at least not regress.
    for name in ("timer_loop_objects", "spawn_join", "signal_pingpong"):
        assert report[name]["speedup"] >= 1.0, (
            f"{name} regressed: {report[name]['speedup']:.2f}x"
        )


# --------------------------------------------------------------------------
# STREAM wall-clock through the full datapath, batched vs unbatched.
# --------------------------------------------------------------------------

STREAM_BYTES = (128 * 1024) if SMOKE else MIB


def _stream_run(batched: bool) -> None:
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    buffer = RemoteBuffer.allocate(
        testbed.node0,
        STREAM_BYTES,
        policy=PagePolicy.BIND,
        numa_nodes=[attachment.plan.numa_node_id],
        batched=batched,
    )
    blob = bytes(range(256)) * (STREAM_BYTES // 256)
    buffer.write(0, blob)
    assert buffer.read(0, STREAM_BYTES) == blob
    buffer.free()


def test_stream_batching_speedup():
    runs = 2 if SMOKE else 3
    _stream_run(batched=True)  # warm-up
    unbatched_s = _best_of(runs, lambda: _stream_run(batched=False))
    batched_s = _best_of(runs, lambda: _stream_run(batched=True))
    speedup = unbatched_s / batched_s
    print(
        f"STREAM {STREAM_BYTES >> 10} KiB x2 (write+read): "
        f"{unbatched_s:.3f}s unbatched, {batched_s:.3f}s batched "
        f"({speedup:.2f}x)"
    )
    _merge_results(
        "stream",
        {
            "bytes_each_way": STREAM_BYTES,
            "unbatched_s": round(unbatched_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(speedup, 3),
            "target": STREAM_TARGET,
        },
    )
    assert speedup >= STREAM_TARGET, (
        f"bulk batching {speedup:.2f}x < {STREAM_TARGET}x target"
    )
