"""Fault-campaign design-space exploration (DSE), DAVOS-style.

This package turns the seeded fault machinery (campaigns, chaos
scenarios, failover) from a demo into an evaluation instrument. It
joins three existing subsystems:

* :mod:`repro.resilience.campaigns` — what faults to inject (levels of
  the ``campaign`` factor, validated against the typed param-spec
  table);
* :mod:`repro.sweep` — how to run the design: every cell is a
  content-addressed :class:`~repro.sweep.RunSpec`, so large designs
  are parallel, resumable, and cached for free;
* :mod:`repro.obs.slo` — how to judge a cell: availability objectives
  evaluated against the cell's metrics snapshot.

The pieces:

* :mod:`~repro.resilience.dse.factors` — the factor space (frame
  size, credit depth, bonding, loss rate, campaign, failover policy)
  with typed level validation and the failover-policy table;
* :mod:`~repro.resilience.dse.design` — design builders:
  full/fractional factorial grids and a seeded evolutionary search
  (tournament selection + mutation);
* :mod:`~repro.resilience.dse.runner` — ``run_cell``, the ``py:``
  sweep target that simulates one configuration through its fault and
  returns the robustness responses;
* :mod:`~repro.resilience.dse.responses` — response extraction
  (recovery time from the event journal, goodput under faults,
  replayed-vs-lost bytes) and per-cell SLO verdicts;
* :mod:`~repro.resilience.dse.model` — least-squares effects models
  with main-effect/interaction ranking (scalar Gaussian-elimination solver);
* :mod:`~repro.resilience.dse.report` — the decision-support report
  (text/JSON/markdown, byte-identical per seed) behind
  ``python -m repro dse``.
"""

from .design import (
    EvolutionResult,
    EvolutionarySearch,
    cells_for,
    fractional_factorial,
    full_factorial,
)
from .factors import (
    DseDesignError,
    EmptyFeasibleSetError,
    FAILOVER_POLICIES,
    Factor,
    FactorSpace,
    FailoverPolicy,
    default_space,
)
from .model import EffectsModel, fit_effects
from .report import build_report, render_markdown, render_text
from .responses import compute_responses, evaluate_cell_slo
from .runner import CELL_TARGET, run_cell

__all__ = [
    "DseDesignError",
    "EmptyFeasibleSetError",
    "Factor",
    "FactorSpace",
    "FailoverPolicy",
    "FAILOVER_POLICIES",
    "default_space",
    "full_factorial",
    "fractional_factorial",
    "cells_for",
    "EvolutionarySearch",
    "EvolutionResult",
    "CELL_TARGET",
    "run_cell",
    "compute_responses",
    "evaluate_cell_slo",
    "EffectsModel",
    "fit_effects",
    "build_report",
    "render_text",
    "render_markdown",
]
