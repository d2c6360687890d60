"""Parallel sweep execution: cache front, process-pool fan-out.

:class:`SweepEngine` takes a list of :class:`~repro.sweep.RunSpec` and
returns one :class:`SweepOutcome` per spec, in order. Execution is
three-tier:

1. **Cache** — every spec is first looked up in the content-addressed
   :class:`~repro.sweep.ResultCache`; hits return without computing.
2. **Serial** — with ``jobs <= 1`` (or a single pending spec) misses
   run in-process, which is also the reference semantics parallel runs
   must reproduce bit-for-bit.
3. **Parallel** — otherwise misses fan out over a
   ``ProcessPoolExecutor``. Each worker process is its own simulator
   universe (fresh module state, tracing force-disabled), and every
   spec carries its full configuration and seed, so results are
   independent of which worker runs them and of completion order.

Workers return ``(value, elapsed, metrics-snapshot)``; the engine
merges the flattened worker metrics into its parent
:class:`~repro.obs.MetricsRegistry` via ``merge_flat`` so one summary
covers the whole fleet.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..obs import MetricsRegistry
from .bootstrap import (
    normalize_jobs,
    pool_worker_init,
    worker_run_snapshot,
)
from .cache import ResultCache
from .spec import RunSpec

__all__ = ["SweepEngine", "SweepOutcome", "resolve_target", "normalize_jobs"]


def resolve_target(name: str) -> Callable[..., Any]:
    """Map a spec target string to the callable that runs it."""
    if name.startswith("slice:"):
        from ..figures import SLICES

        return SLICES[name[len("slice:"):]]
    if name.startswith("figure:"):
        from ..figures import FIGURES

        return FIGURES[name[len("figure:"):]]
    if name.startswith("py:"):
        _, module_name, function_name = name.split(":", 2)
        module = sys.modules.get(module_name)
        if module is None:
            module = importlib.import_module(module_name)
        return getattr(module, function_name)
    raise KeyError(
        f"unknown target {name!r} (expected 'slice:', 'figure:' or "
        f"'py:module:function')"
    )


def _accepts_seed(target: Callable[..., Any]) -> bool:
    try:
        parameters = inspect.signature(target).parameters
    except (TypeError, ValueError):  # builtins etc.
        return False
    if "seed" in parameters:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one spec payload (in-process or inside a pool worker)."""
    target = resolve_target(payload["target"])
    kwargs = dict(payload["kwargs"])
    if payload["seed"] is not None and _accepts_seed(target):
        kwargs.setdefault("seed", payload["seed"])
    started = time.perf_counter()
    value = target(**kwargs)
    elapsed = time.perf_counter() - started
    return {
        "key": payload["key"],
        "value": value,
        "elapsed_s": elapsed,
        "metrics": worker_run_snapshot(
            "sweep", elapsed, target=payload["target"]
        ),
    }


@dataclass
class SweepOutcome:
    """One spec's result: the value plus execution provenance."""

    spec: RunSpec
    value: Any
    cached: bool
    elapsed_s: float
    metrics: Dict[str, float] = field(default_factory=dict)


class SweepEngine:
    """Cache-fronted, optionally-parallel executor for RunSpecs."""

    def __init__(
        self,
        jobs: Union[int, str, None] = 1,
        cache: bool = True,
        cache_dir: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.jobs = normalize_jobs(jobs)
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache else None
        )
        self.registry = registry or MetricsRegistry("sweep")
        self.specs_seen = 0
        self.cache_hits = 0
        self.executed = 0
        self.wall_s = 0.0

    # -- execution -------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[SweepOutcome]:
        """Execute every spec (cache, then fan-out); order-preserving."""
        started = time.perf_counter()
        outcomes: List[Optional[SweepOutcome]] = [None] * len(specs)
        pending: List[int] = []
        for index, spec in enumerate(specs):
            envelope = self.cache.get(spec) if self.cache else None
            if envelope is not None:
                outcomes[index] = SweepOutcome(
                    spec=spec,
                    value=envelope["result"],
                    cached=True,
                    elapsed_s=float(envelope.get("elapsed_s", 0.0)),
                )
            else:
                pending.append(index)

        if pending:
            payloads = [specs[index].payload() for index in pending]
            if self.jobs > 1 and len(pending) > 1:
                workers = min(self.jobs, len(pending))
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=pool_worker_init,
                ) as pool:
                    raw = list(pool.map(execute_payload, payloads))
            else:
                raw = [execute_payload(payload) for payload in payloads]
            for index, out in zip(pending, raw):
                spec = specs[index]
                outcomes[index] = SweepOutcome(
                    spec=spec,
                    value=out["value"],
                    cached=False,
                    elapsed_s=out["elapsed_s"],
                    metrics=out["metrics"],
                )
                self.registry.merge_flat(out["metrics"])
                if self.cache is not None:
                    self.cache.put(spec, out["value"], out["elapsed_s"])

        wall = time.perf_counter() - started
        self.specs_seen += len(specs)
        self.cache_hits += len(specs) - len(pending)
        self.executed += len(pending)
        self.wall_s += wall
        self.registry.gauge("sweep.specs").adjust(len(specs))
        self.registry.gauge("sweep.cache_hits").adjust(
            len(specs) - len(pending)
        )
        self.registry.gauge("sweep.executed").adjust(len(pending))
        self.registry.gauge("sweep.wall_s").adjust(wall)
        self.registry.gauge("sweep.jobs").set(self.jobs)
        return [outcome for outcome in outcomes if outcome is not None]

    # -- reporting -------------------------------------------------------------
    def stats_line(self) -> str:
        cached = "off"
        if self.cache is not None:
            cached = f"{self.cache_hits} hits"
        return (
            f"sweep: {self.specs_seen} specs, {self.executed} executed, "
            f"cache {cached}, jobs={self.jobs}, {self.wall_s:.2f}s wall"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SweepEngine(jobs={self.jobs}, "
            f"cache={'on' if self.cache else 'off'}, "
            f"specs={self.specs_seen})"
        )
