"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload line-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` times iterations of the workload with nothing wrapped and
reports the end-to-end metrics named in ``BENCHMARK.json``: medians
over the iterations of work and engine events per host second and of
set-up time, plus peak resident memory. Host seconds here are scaled
by the host-speed reference of :mod:`perfbench.calibrate`, so that
neighbours on a shared host do not move them; the raw median is in the
provenance line. ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics: self time per layer from
:mod:`perfbench.ledger` (raw host seconds), counts from the program's
metrics registry, and the tracing overhead.

Seeds: 1 is the development seed; 7 is held out, and a performance
claim is confirmed on it before it counts. A seed fixes every input.

Each iteration starts from freshly built state, so all iterations of a
seed must produce the same fingerprint of simulated outputs; a
mismatch, or a mismatch with an earlier run of the same seed, program
and benchmark source recorded in ``.perfbench/fingerprints.json``,
fails the run. The last line of standard output is the result object; the line
before it carries provenance (host, source fingerprint, command line,
the fingerprint itself) so a change can show it left the model
bit-identical.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1
HELDOUT_SEED = 7
#: Fewest timed iterations a run reports a median over.
MIN_ITERATIONS = 3
#: Fewest set-ups ``setup_s`` is a median of; set-ups beyond one per
#: iteration are built and dropped.
MIN_SETUPS = 9
STATE_FILE = os.path.join(ROOT, ".perfbench", "fingerprints.json")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.path[:0] = [source, ROOT]

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    harness = Harness(workload, args.seconds)
    if args.trace:
        values = harness.traced()
        declared = spec["per_layer"]
    else:
        values = harness.untraced()
        declared = spec["end_to_end"]

    fingerprint = harness.fingerprint
    if fingerprint is not None and not _agrees_with_record(
        args.workload, args.seed, fingerprint
    ):
        harness.mismatch("fingerprint differs from an earlier run")
    for error in harness.errors:
        print(f"perfbench: {error}", file=sys.stderr)

    from repro.accel import ops
    from repro.sweep.fingerprint import source_fingerprint

    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    print(json.dumps({"provenance": {
        "workload": args.workload,
        "why": why.get(args.workload),
        "work_unit": workload.unit,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "iterations": harness.iterations,
        **harness.notes,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "accel_backend": ops.NAME,
        "source_fingerprint": source_fingerprint(),
        "command": [os.path.relpath(sys.argv[0], ROOT)] + sys.argv[1:],
    }}, sort_keys=True))
    print(json.dumps({
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {
            entry["name"]: {
                "value": values[entry["name"]], "unit": entry["unit"]
            }
            for entry in declared
        },
    }))
    return 0


class Harness:
    """Iterates one workload, checks outputs, collects measurements."""

    def __init__(self, workload: Any, seconds: float):
        from perfbench.ledger import EventCounter

        self.workload = workload
        self.seconds = seconds
        self.counter = EventCounter()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.fingerprint: Optional[str] = None
        self.iterations = 0
        #: Extra figures for the provenance line.
        self.notes: Dict[str, float] = {}

    # -- one iteration ---------------------------------------------------------------
    def _iterate(self, ledger=None, speed=None) -> Dict[str, Any]:
        """Set up and run once; returns the state and the timings.

        With a :class:`~perfbench.calibrate.HostSpeed`, ``setup_s`` and
        ``run_s`` are scaled host seconds; without, raw host seconds.
        """
        gc.collect()
        workload = self.workload
        if speed is not None:
            speed.reset()
        started = time.perf_counter()
        state = workload.setup()
        ready = time.perf_counter()
        busy_ready = speed.busy_s if speed is not None else 0.0
        self.counter.reset()
        outcome = workload.run(state, ledger)
        done = time.perf_counter()
        events, sim_s = self.counter.events, self.counter.sim_s
        setup_s, run_s = ready - started, done - ready
        if speed is not None:
            busy_done = speed.busy_s
            setup_s = speed.scale(setup_s, busy_ready)
            run_s = speed.scale(run_s, busy_done - busy_ready)
        self.iterations += 1
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors.extend(outcome.errors)
        return {
            "state": state,
            "setup_s": setup_s,
            "run_s": run_s,
            "wall_s": done - started,
            "raw_run_s": done - ready,
            "build_s": state.build_s,
            "attach_s": state.attach_s,
            "work": outcome.work,
            "events": events,
            "sim_s": sim_s,
        }

    def _check(self, state: Any) -> Any:
        """Observe simulated outputs and compare with the first iteration."""
        observation = self.workload.observe(state)
        if self.fingerprint is None:
            self.fingerprint = observation.fingerprint
        elif observation.fingerprint != self.fingerprint:
            self.mismatch("fingerprint differs between iterations of a seed")
        return observation

    def mismatch(self, why: str) -> None:
        self.failed += 1
        self.errors.append(why)

    def _untraced_iteration(self, speed=None) -> Dict[str, Any]:
        sample = self._iterate(speed=speed)
        self._check(sample.pop("state"))
        return sample

    def _setup_only(self, speed) -> float:
        """Scaled host seconds of one set-up whose state is dropped."""
        gc.collect()
        speed.reset()
        started = time.perf_counter()
        self.workload.setup()
        return speed.scale(time.perf_counter() - started, speed.busy_s)

    # -- runs ------------------------------------------------------------------------
    def untraced(self) -> Dict[str, float]:
        from perfbench.calibrate import HostSpeed

        samples = []
        with self.counter, HostSpeed() as speed:
            self._untraced_iteration(speed)  # warm-up: caches, allocator
            deadline = time.perf_counter() + self.seconds
            while (len(samples) < MIN_ITERATIONS
                   or time.perf_counter() < deadline):
                samples.append(self._untraced_iteration(speed))
            setups = [sample["setup_s"] for sample in samples]
            while len(setups) < MIN_SETUPS:
                setups.append(self._setup_only(speed))
        self.notes["raw_work_per_s"] = _median(
            s["work"] / s["raw_run_s"] for s in samples
        )
        return {
            "work_per_s": _median(s["work"] / s["run_s"] for s in samples),
            "events_per_s": _median(s["events"] / s["run_s"] for s in samples),
            "setup_s": _median(setups),
            "peak_rss_mib": _peak_rss_mib(),
        }

    def traced(self) -> Dict[str, float]:
        from perfbench.layers import derive, split_values
        from perfbench.ledger import Ledger

        untraced: List[Dict[str, Any]] = []
        traced: List[Dict[str, float]] = []
        counts: Optional[Dict[str, float]] = None
        with self.counter:
            self._untraced_iteration()  # warm-up
            deadline = time.perf_counter() + self.seconds
            while not traced or time.perf_counter() < deadline:
                untraced.append(self._untraced_iteration())
                with Ledger() as ledger:
                    sample = self._iterate(ledger)
                observation = self._check(sample["state"])
                times, current = split_values(ledger, observation, sample)
                if counts is None:
                    counts = current
                elif current != counts:
                    self.mismatch("per-layer counts differ between runs")
                traced.append(times)
        result = dict(counts)
        for name in traced[0]:
            result[name] = _median(times[name] for times in traced)
        result["trace.overhead_ratio"] = (
            result["trace.wall_s"] / _median(s["wall_s"] for s in untraced)
        )
        # Set-up parts are timed untraced, like setup_s.
        result["testbed.build_s"] = _median(s["build_s"] for s in untraced)
        result["testbed.attach_s"] = _median(s["attach_s"] for s in untraced)
        derive(result)
        return result


def _median(values) -> float:
    return float(statistics.median(list(values)))


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _agrees_with_record(workload: str, seed: int, fingerprint: str) -> bool:
    """Compare with (and record) the fingerprint of earlier runs.

    Keyed by workload, seed and the source of both the program and the
    benchmark, so a run of changed source starts a fresh record instead
    of failing.
    """
    from repro.sweep.fingerprint import (
        combine_fingerprints, file_digest, source_fingerprint,
    )

    here = os.path.dirname(os.path.abspath(__file__))
    benchmark = combine_fingerprints(*(
        file_digest(os.path.join(here, name))
        for name in sorted(os.listdir(here)) if name.endswith(".py")
    ))
    key = f"{workload}:{seed}:{source_fingerprint()}:{benchmark}"
    try:
        with open(STATE_FILE) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = {}
    previous = record.setdefault(key, fingerprint)
    if previous == fingerprint:
        os.makedirs(os.path.dirname(STATE_FILE), exist_ok=True)
        scratch = f"{STATE_FILE}.{os.getpid()}"
        with open(scratch, "w") as handle:
            json.dump(record, handle, sort_keys=True, indent=0)
        os.replace(scratch, STATE_FILE)
    return previous == fingerprint


if __name__ == "__main__":
    sys.exit(main())
