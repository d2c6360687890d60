"""STREAM sustainable-memory-bandwidth benchmark — paper §VI-C / Fig. 5.

Two faces:

* :class:`StreamModel` — the analytic machine model that regenerates
  Fig. 5: per-thread bandwidth is concurrency-limited
  (outstanding-lines × linesize / latency), the aggregate is capped by
  the path bandwidth (channel ceiling for disaggregated memory, split
  harmonically for the interleaved configuration), with a mild
  saturation penalty past the knee ("performance decreases because the
  network facing stack gets closer to the saturation threshold").
* :func:`stream_reference_kernels` — tiny functional implementations of
  the four kernels over numpy arrays used to validate the bytes/FLOP
  accounting in tests.

Kernel definitions follow §VI-C exactly: copy moves 16 B/iteration with
0 FLOPs; scale 16 B with 1 FLOP; add 24 B with 1 FLOP; triad 24 B with
2 FLOPs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..mem.address import CACHELINE_BYTES
from ..testbed.configurations import AccessEnvironment, MemoryConfigKind

__all__ = [
    "StreamKernel",
    "StreamConfig",
    "StreamResult",
    "StreamModel",
    "stream_reference_kernels",
]


class StreamKernel(enum.Enum):
    """The four STREAM kernels with their per-iteration costs (§VI-C)."""

    COPY = ("copy", 16, 0)
    SCALE = ("scale", 16, 1)
    ADD = ("add", 24, 1)
    TRIAD = ("triad", 24, 2)

    def __init__(self, label: str, bytes_per_iter: int, flops_per_iter: int):
        self.label = label
        self.bytes_per_iter = bytes_per_iter
        self.flops_per_iter = flops_per_iter


@dataclass(frozen=True)
class StreamConfig:
    """One STREAM run: paper default is 160 M elements (3.66 GiB total)."""

    array_elements: int = 160_000_000
    element_bytes: int = 8
    threads: int = 8

    @property
    def footprint_bytes(self) -> int:
        # Three arrays (a, b, c) as in McCalpin's reference code.
        return 3 * self.array_elements * self.element_bytes

    def __post_init__(self):
        if self.array_elements < 1 or self.threads < 1:
            raise ValueError("need >= 1 element and >= 1 thread")


@dataclass(frozen=True)
class StreamResult:
    kernel: StreamKernel
    threads: int
    bandwidth_bytes_s: float


class StreamModel:
    """Analytic sustained-bandwidth model for one §VI-A configuration."""

    def __init__(
        self,
        environment: AccessEnvironment,
        outstanding_lines_per_thread: int = 20,
        flops_per_cycle: float = 4.0,
        frequency_hz: float = 3.8e9,
        saturation_droop: float = 0.05,
    ):
        self.environment = environment
        self.outstanding = outstanding_lines_per_thread
        self.flops_per_cycle = flops_per_cycle
        self.frequency_hz = frequency_hz
        self.saturation_droop = saturation_droop

    # -- model pieces ------------------------------------------------------------------
    def effective_latency_s(self) -> float:
        """Mean miss latency: STREAM misses on every line (no reuse)."""
        env = self.environment
        if env.remote_fraction == 0.0:
            return env.local_latency_s
        return (
            (1.0 - env.remote_fraction) * env.local_latency_s
            + env.remote_fraction * env.remote_latency_s
        )

    def per_thread_bandwidth(self, kernel: StreamKernel) -> float:
        """Concurrency-limited demand of one thread (Little's law)."""
        memory_time = self.effective_latency_s() / self.outstanding
        bandwidth = CACHELINE_BYTES / memory_time
        if kernel.flops_per_iter:
            # One iteration moves bytes_per_iter and does flops; compute
            # time per byte shaves demand when it dominates (it never
            # does on POWER9 at 4 FLOP/cycle, but the model is honest).
            compute_time_per_byte = kernel.flops_per_iter / (
                self.flops_per_cycle * self.frequency_hz * kernel.bytes_per_iter
            )
            memory_time_per_byte = 1.0 / bandwidth
            bandwidth = 1.0 / max(memory_time_per_byte, compute_time_per_byte)
        return bandwidth

    def path_capacity(self) -> float:
        """Aggregate ceiling of the memory path for this configuration."""
        env = self.environment
        if env.remote_fraction == 0.0:
            return env.local_bandwidth_bytes_s
        if env.remote_fraction >= 1.0:
            return env.remote_bandwidth_bytes_s
        # Interleaved: both paths run in parallel; the slower-relative
        # path bounds the blend (min over f/bw terms).
        remote_bound = env.remote_bandwidth_bytes_s / env.remote_fraction
        local_bound = env.local_bandwidth_bytes_s / (1.0 - env.remote_fraction)
        return min(remote_bound, local_bound)

    def sustained_bandwidth(
        self, kernel: StreamKernel, threads: int
    ) -> float:
        """Aggregate sustained bandwidth for ``threads`` OpenMP threads."""
        if threads < 1:
            raise ValueError(f"threads must be >= 1: {threads}")
        demand = threads * self.per_thread_bandwidth(kernel)
        capacity = self.path_capacity()
        if demand <= capacity:
            return demand
        # Past the knee the network-facing stack saturates and goodput
        # droops slightly with additional pressure (§VI-C).
        overload = demand / capacity - 1.0
        return capacity / (1.0 + self.saturation_droop * overload)

    # -- benchmark driver ----------------------------------------------------------------
    def run(self, config: Optional[StreamConfig] = None) -> Dict[str, StreamResult]:
        config = config or StreamConfig()
        return {
            kernel.label: StreamResult(
                kernel=kernel,
                threads=config.threads,
                bandwidth_bytes_s=self.sustained_bandwidth(
                    kernel, config.threads
                ),
            )
            for kernel in StreamKernel
        }


def stream_reference_kernels(elements: int = 1024) -> Dict[str, np.ndarray]:
    """Functional reference: run all four kernels, return the arrays.

    Used by tests to pin down the bytes/FLOPs bookkeeping (e.g. that
    "copy" really is one read + one write per element).
    """
    rng = np.random.default_rng(42)
    a = rng.random(elements)
    b = np.empty_like(a)
    c = np.empty_like(a)
    scalar = 3.0
    c[:] = a                      # copy:  c = a
    b[:] = scalar * c             # scale: b = q*c
    c[:] = a + b                  # add:   c = a + b
    a_out = b + scalar * c        # triad: a = b + q*c
    return {"a": a, "b": b, "c": c, "triad": a_out}
