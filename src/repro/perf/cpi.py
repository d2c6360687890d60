"""CPI-stack performance model.

Converts a workload's :class:`~repro.mem.cache.AccessProfile` plus an
:class:`~repro.testbed.configurations.AccessEnvironment` into the
quantities the paper's profiling campaign reports (§VI-D, Fig. 6):
retired instructions per cycle (IPC), utilized CPU cores (UCC from the
task-clock event), and front-end/back-end stall fractions.

The model is the classic additive CPI stack::

    CPI = CPI_base + CPI_frontend + CPI_backend(memory)

with the memory component::

    CPI_backend = f_mem * m_LLC * blocking * (latency * f_clk) / MLP

where *MLP* (memory-level parallelism) grows with latency — out-of-order
cores overlap more independent misses when each one takes longer, which
is why the measured stall fraction grows from 55.5 % to 80.9 % (a 1.5×
stall-cycle CPI growth per instruction... observed 3.4× in total stall
cycles) rather than the naive 11× the raw latency ratio would suggest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..mem.cache import AccessProfile
from ..testbed.configurations import AccessEnvironment

__all__ = ["CpiModel", "CpiBreakdown"]


@dataclass(frozen=True)
class CpiBreakdown:
    """One evaluated CPI stack."""

    base_cpi: float
    frontend_stall_cpi: float
    backend_stall_cpi: float
    mlp: float

    @property
    def total_cpi(self) -> float:
        return self.base_cpi + self.frontend_stall_cpi + self.backend_stall_cpi

    @property
    def ipc(self) -> float:
        """Per-hardware-thread retired instructions per cycle."""
        return 1.0 / self.total_cpi

    @property
    def backend_stall_fraction(self) -> float:
        """Fraction of cycles stalled in the back-end (perf's
        ``stalled-cycles-backend`` / ``cycles``)."""
        return self.backend_stall_cpi / self.total_cpi


class CpiModel:
    """POWER9-flavoured CPI stack with latency-adaptive MLP."""

    def __init__(
        self,
        base_cpi: float = 0.45,
        frontend_stall_cpi: float = 0.15,
        frequency_hz: float = 3.8e9,
        mlp_base: float = 2.0,
        mlp_alpha: float = 0.94,
        mlp_max: float = 8.0,
    ):
        if base_cpi <= 0:
            raise ValueError(f"base_cpi must be > 0: {base_cpi}")
        if mlp_base < 1.0:
            raise ValueError(f"mlp_base must be >= 1: {mlp_base}")
        self.base_cpi = base_cpi
        self.frontend_stall_cpi = frontend_stall_cpi
        self.frequency_hz = frequency_hz
        self.mlp_base = mlp_base
        self.mlp_alpha = mlp_alpha
        self.mlp_max = mlp_max

    # -- components -------------------------------------------------------------------
    def mlp_for_latency(self, miss_latency_s: float,
                        local_latency_s: float) -> float:
        """Effective overlap of outstanding misses at a given latency.

        Longer-latency misses leave the out-of-order window more time to
        expose independent misses, so the effective parallelism grows
        logarithmically with the latency ratio, saturating at the
        load-miss-queue depth.
        """
        if miss_latency_s <= local_latency_s:
            return self.mlp_base
        ratio = miss_latency_s / local_latency_s
        return min(
            self.mlp_max, self.mlp_base * (1.0 + self.mlp_alpha * math.log(ratio))
        )

    def backend_stall_cpi(
        self, profile: AccessProfile, environment: AccessEnvironment
    ) -> float:
        """Memory back-end stall cycles per instruction."""
        miss_latency = (
            (1.0 - profile.remote_fraction) * environment.local_latency_s
            + profile.remote_fraction * environment.remote_latency_s
        )
        if miss_latency <= 0:
            miss_latency = environment.local_latency_s
        mlp = self.mlp_for_latency(miss_latency, environment.local_latency_s)
        # Stores retire through the store queue; only a fraction of their
        # latency stalls the pipeline.
        blocking = (
            (1.0 - profile.write_fraction)
            + profile.write_fraction * profile.write_stall_factor
        )
        penalty_cycles = miss_latency * self.frequency_hz
        return (
            profile.memory_instruction_fraction
            * profile.llc_miss_ratio
            * blocking
            * penalty_cycles
            / mlp
        )

    # -- top level ---------------------------------------------------------------------
    def evaluate(
        self, profile: AccessProfile, environment: AccessEnvironment
    ) -> CpiBreakdown:
        """Evaluate the stack for a profile under an environment.

        ``profile.remote_fraction`` is overridden by the environment's
        NUMA split — the environment is the ground truth for where pages
        live.
        """
        effective = profile.with_remote_fraction(environment.remote_fraction)
        miss_latency = (
            (1.0 - effective.remote_fraction) * environment.local_latency_s
            + effective.remote_fraction * environment.remote_latency_s
        )
        if miss_latency <= 0:
            miss_latency = environment.local_latency_s
        return CpiBreakdown(
            base_cpi=self.base_cpi,
            frontend_stall_cpi=self.frontend_stall_cpi,
            backend_stall_cpi=self.backend_stall_cpi(effective, environment),
            mlp=self.mlp_for_latency(
                miss_latency, environment.local_latency_s
            ),
        )
