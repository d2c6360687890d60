"""perf(1)-style counter aggregation.

Mirrors the §VI-D methodology: "The average UCC is based on the
task-clock perf event … The single-thread IPC … is obtained by dividing
instructions by the value of cycles. Finally, the average IPC across
the whole CPU package is obtained multiplying the single-thread IPC by
the average UCC."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["PerfSample", "PerfAggregator"]


@dataclass
class PerfSample:
    """Raw counters for one measurement window (one simulated run)."""

    instructions: float
    cycles: float
    task_clock_s: float
    wall_clock_s: float
    stalled_cycles_backend: float = 0.0
    stalled_cycles_frontend: float = 0.0

    def __post_init__(self):
        if self.cycles <= 0:
            raise ValueError(f"cycles must be > 0: {self.cycles}")
        if self.wall_clock_s <= 0:
            raise ValueError(f"wall_clock_s must be > 0: {self.wall_clock_s}")

    @property
    def thread_ipc(self) -> float:
        """Single-thread IPC: instructions / cycles."""
        return self.instructions / self.cycles

    @property
    def utilized_cores(self) -> float:
        """UCC from task-clock: busy CPU-seconds per wall second."""
        return self.task_clock_s / self.wall_clock_s

    @property
    def package_ipc(self) -> float:
        """Whole-package IPC = single-thread IPC × UCC (§VI-D)."""
        return self.thread_ipc * self.utilized_cores

    @property
    def backend_stall_fraction(self) -> float:
        return self.stalled_cycles_backend / self.cycles


class PerfAggregator:
    """Accumulates samples across repeated runs / workload phases."""

    def __init__(self):
        self._totals: Dict[str, float] = {
            "instructions": 0.0,
            "cycles": 0.0,
            "task_clock_s": 0.0,
            "wall_clock_s": 0.0,
            "stalled_cycles_backend": 0.0,
            "stalled_cycles_frontend": 0.0,
        }
        self.samples = 0

    def add(self, sample: PerfSample) -> None:
        self._totals["instructions"] += sample.instructions
        self._totals["cycles"] += sample.cycles
        self._totals["task_clock_s"] += sample.task_clock_s
        self._totals["wall_clock_s"] += sample.wall_clock_s
        self._totals["stalled_cycles_backend"] += sample.stalled_cycles_backend
        self._totals["stalled_cycles_frontend"] += sample.stalled_cycles_frontend
        self.samples += 1

    def combined(self) -> PerfSample:
        if self.samples == 0:
            raise ValueError("no samples recorded")
        return PerfSample(**self._totals)
