"""Shared worker-process bootstrap for every multiprocess fan-out.

Two layers of the stack fan work out over a ``ProcessPoolExecutor``:
the sweep engine (independent :class:`~repro.sweep.RunSpec` runs) and
the rack-domain coordinator (:mod:`repro.sim.domains` — shards of *one*
run). Both need identical worker hygiene, and both used to duplicate
it; this module is the single source of truth for:

* **Tracing hygiene** — a worker forked mid-trace would inherit the
  parent's live tracer; every worker starts from a clean
  observability slate.
* **Job-count resolution** — ``SWEEP_JOBS`` is honored by both pools
  through :func:`resolve_jobs`, so one environment variable sizes the
  whole fleet.
* **Seed derivation** — :func:`derive_seed` is the stable (process-
  and hash-randomization-independent) way to split one base seed into
  per-worker / per-domain streams.
* **Registry capture** — :func:`worker_run_snapshot` is the flattened
  per-run metrics record workers ship back for the parent registry to
  ``merge_flat``.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Union

from ..obs import MetricsRegistry, disable_tracing

__all__ = [
    "JOBS_ENV",
    "normalize_jobs",
    "resolve_jobs",
    "pool_worker_init",
    "derive_seed",
    "worker_run_snapshot",
]

#: Environment variable sizing every multiprocess pool in the repo.
JOBS_ENV = "SWEEP_JOBS"


def normalize_jobs(jobs: Union[int, str, None]) -> int:
    """``'auto'`` -> CPU count; anything else -> positive int."""
    if jobs in (None, "", "auto"):
        return max(1, os.cpu_count() or 1)
    count = int(jobs)
    if count < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs!r}")
    return count


def resolve_jobs(value: Union[int, str, None] = None,
                 env: str = JOBS_ENV) -> int:
    """Resolve a job count: explicit value, else ``$SWEEP_JOBS``, else 1.

    The explicit value (CLI flag, constructor argument) always wins;
    an unset/empty value falls back to the environment so campaigns
    can size both the sweep pool and the domain pool with one knob.
    """
    if value in (None, ""):
        value = os.environ.get(env) or "1"
        if value == "":  # pragma: no cover - defensive (env set to "")
            value = "1"
    return normalize_jobs(value)


def pool_worker_init() -> None:
    """Initializer every pool worker runs before its first task.

    A worker forked mid-trace would inherit the parent's live tracer;
    every task must simulate from a clean observability slate.
    """
    disable_tracing()


def derive_seed(base: int, *parts: Union[int, str]) -> int:
    """Derive a stable 63-bit child seed from ``base`` and name parts.

    sha256-based like :meth:`repro.sim.rng.SeededRNG.derive`, so the
    result is identical across processes regardless of hash
    randomization — the property per-domain and per-replicate seeds
    need for byte-identical parallel runs.
    """
    text = "/".join([str(base)] + [str(part) for part in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2 ** 63 - 1)


def worker_run_snapshot(pool: str, elapsed_s: float,
                        **labels: str) -> Dict[str, float]:
    """Flattened per-run metrics record a worker ships to its parent.

    Both pools return ``{pool}.worker.runs`` / ``{pool}.worker.busy_s``
    series; the parent folds them with
    :meth:`~repro.obs.MetricsRegistry.merge_flat` so N workers' busy
    time sums into one fleet-wide summary.
    """
    registry = MetricsRegistry(f"{pool}-worker")
    registry.gauge(f"{pool}.worker.runs", **labels).adjust(1)
    registry.gauge(f"{pool}.worker.busy_s", **labels).adjust(elapsed_s)
    return registry.snapshot()
