"""Host-speed reference sampled while a workload runs.

On a shared host the speed of one CPU swings widely: other tenants'
threads contend for the same core and caches, so a fixed piece of work
takes up to 1.8x longer from one five-second window to the next, and
the speed is only weakly correlated from one second to the next. A raw
time then says as much about the neighbours as about the program.

:class:`HostSpeed` measures the host's speed during the same interval
as the workload: every ``PERIOD_S`` a timer interrupts the workload and
times one reference slice, a fixed piece of interpreter-bound work
shaped like the program's hot path (a discrete-event loop popping a
heap and moving cacheline-sized byte slices) that shares no code with
the program. The time spent in slices is subtracted again, and a phase
of the workload is reported in *scaled* host seconds: its time
multiplied by ``NOMINAL_SLICE_S`` over the mean slice time, i.e. the
time it would take on a host where one slice takes ``NOMINAL_SLICE_S``.
A change to the program moves scaled times; a busy neighbour does not.

The slices never touch program state, so simulated outputs (and their
fingerprints) are unchanged; they cost about 5% of host time.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import Any

__all__ = ["NOMINAL_SLICE_S", "PERIOD_S", "HostSpeed"]

#: Scaled seconds read as host seconds on a host where one reference
#: slice takes this long (about the mean slice time on an uncontended
#: 2.1 GHz x86-64 core under CPython 3.11).
NOMINAL_SLICE_S = 0.0006
#: Interval between reference slices, in host seconds.
PERIOD_S = 0.02

_BLOB = bytes(range(256)) * 4096  # 1 MiB of source bytes
_LINE = 128
_EVENTS = 600


def reference_slice() -> int:
    """One fixed slice of heap-driven event work; returns a checksum."""
    store = {}
    heap = [(0.0, index, index * 4096) for index in range(64)]
    heapq.heapify(heap)
    seq = len(heap)
    limit = len(_BLOB) - _LINE
    for _ in range(_EVENTS):
        now, key, offset = heapq.heappop(heap)
        store[offset % 8192] = _BLOB[offset : offset + _LINE]
        due = now + (key % 5 + 1) * 1e-9
        heapq.heappush(heap, (due, seq, (offset + 7 * _LINE) % limit))
        seq += 1
    return len(store)


class HostSpeed:
    """Context manager sampling host speed with a reference slice timer.

    ``busy_s`` is the host time spent in slices since :meth:`reset`;
    :meth:`scale` turns the host time of a phase into scaled seconds.
    """

    def __init__(self) -> None:
        self.busy_s = 0.0
        self.slices = 0
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        reference_slice()
        self.busy_s += time.perf_counter() - started
        self.slices += 1

    def reset(self) -> None:
        self.busy_s = 0.0
        self.slices = 0

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, host_s: float, busy_s: float) -> float:
        """Scaled seconds of a phase that took ``host_s`` with ``busy_s``
        of it in slices, at the mean slice time since :meth:`reset`."""
        if not self.slices:  # a phase shorter than one period
            self._sample(signal.SIGALRM, None)
        mean_slice = self.busy_s / self.slices
        return (host_s - busy_s) * NOMINAL_SLICE_S / mean_slice
