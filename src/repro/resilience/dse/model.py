"""Least-squares effects models: which factors move which response.

Given the evaluated design (points + one response value per point),
:func:`fit_effects` fits a classic deviation-coded (sum-to-zero)
effects model::

    y = mean + effect[factor][level] (+ effect[f x g][lf, lg]) + error

Each factor with L design levels contributes L-1 coded columns (the
last level's effect is minus the sum of the others), so "effect" reads
directly as *deviation from the grand mean*. Optional pairwise
interaction terms are products of the main-effect codings. The normal
equations get a tiny ridge on the diagonal — enough to keep aliased
columns (fractional designs) solvable without noticeably biasing a
well-posed fit — and are solved by Gaussian elimination
(:func:`repro.accel.ops.solve_linear_system`).

Factor *importance* is the range of its fitted effects (max - min):
the swing in the response attributable to moving that knob across the
design, which is the ranking the decision-support report prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ...accel import ops
from .factors import DseDesignError

__all__ = ["EffectsModel", "fit_effects"]

#: Diagonal regularization added to the normal equations.
RIDGE = 1e-9


def _level_key(level: Any) -> str:
    """Canonical (JSON) text of one level, usable as a dict key."""
    return json.dumps(level, sort_keys=True)


@dataclass
class EffectsModel:
    """One fitted response model, ranked and JSON-able."""

    response: str
    mean: float
    r_squared: float
    observations: int
    #: Per factor: {"factor", "importance", "effects": {level: value}},
    #: sorted by importance (descending, then name).
    factors: List[Dict[str, Any]] = field(default_factory=list)
    #: Per pair: {"factors": [f, g], "importance", "effects"}, same sort.
    interactions: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ranking(self) -> List[str]:
        """Factor names, most influential first."""
        return [entry["factor"] for entry in self.factors]

    def describe(self) -> Dict[str, Any]:
        return {
            "response": self.response,
            "mean": self.mean,
            "r_squared": self.r_squared,
            "observations": self.observations,
            "factors": self.factors,
            "interactions": self.interactions,
        }


def _coding_columns(
    levels: Dict[str, List[Any]]
) -> List[Tuple[str, Any]]:
    """(factor, level) per coded column, in factor-then-level order."""
    columns = []
    for name, values in levels.items():
        for level in values[:-1]:
            columns.append((name, level))
    return columns


def _code(value: Any, levels: List[Any], column_level: Any) -> float:
    """Deviation coding of one observation for one column."""
    if value == column_level:
        return 1.0
    if value == levels[-1]:
        return -1.0
    return 0.0


def fit_effects(
    points: Sequence[Dict[str, Any]],
    values: Sequence[float],
    levels: Dict[str, List[Any]],
    *,
    response: str = "response",
    interactions: Sequence[Tuple[str, str]] = (),
) -> EffectsModel:
    """Fit one response's effects model over the evaluated design.

    ``levels`` defines the coding (the design's per-factor levels, in
    design order); factors with a single level carry no information and
    are skipped. ``interactions`` names factor pairs to model on top of
    the main effects.
    """
    if len(points) != len(values):
        raise DseDesignError(
            f"{len(points)} points but {len(values)} response values"
        )
    if not points:
        raise DseDesignError("cannot fit a model with no observations")
    varying = {
        name: list(vals) for name, vals in levels.items() if len(vals) > 1
    }
    for first, second in interactions:
        for name in (first, second):
            if name not in varying:
                raise DseDesignError(
                    f"interaction references non-varying factor {name!r}"
                )

    columns = _coding_columns(varying)
    pair_columns: List[Tuple[str, Any, str, Any]] = []
    for first, second in interactions:
        for lf in varying[first][:-1]:
            for lg in varying[second][:-1]:
                pair_columns.append((first, lf, second, lg))

    width = 1 + len(columns) + len(pair_columns)
    rows: List[List[float]] = []
    for point in points:
        row = [1.0]
        for name, level in columns:
            row.append(_code(point[name], varying[name], level))
        for first, lf, second, lg in pair_columns:
            row.append(
                _code(point[first], varying[first], lf)
                * _code(point[second], varying[second], lg)
            )
        rows.append(row)

    # Normal equations with a ridge diagonal: X'X beta = X'y.
    ys = [float(v) for v in values]
    xtx = [[0.0] * width for _ in range(width)]
    xty = [0.0] * width
    for row, y in zip(rows, ys):
        for i in range(width):
            ri = row[i]
            if ri == 0.0:
                continue
            xty[i] += ri * y
            target = xtx[i]
            for j in range(width):
                target[j] += ri * row[j]
    for i in range(width):
        xtx[i][i] += RIDGE
    beta = ops.solve_linear_system(xtx, xty)

    mean = beta[0]
    predictions = [
        sum(c * b for c, b in zip(row, beta)) for row in rows
    ]
    sse = sum((y - p) ** 2 for y, p in zip(ys, predictions))
    sst = sum((y - mean) ** 2 for y in ys)
    r_squared = 1.0 if sst == 0.0 else max(0.0, 1.0 - sse / sst)

    # Unfold coefficients into per-level effects (sum-to-zero closes
    # each factor's last level).
    factor_entries = []
    cursor = 1
    for name, vals in varying.items():
        coefs = beta[cursor : cursor + len(vals) - 1]
        cursor += len(vals) - 1
        effects = {
            _level_key(level): coef for level, coef in zip(vals, coefs)
        }
        effects[_level_key(vals[-1])] = -sum(coefs)
        spread = max(effects.values()) - min(effects.values())
        factor_entries.append({
            "factor": name,
            "importance": spread,
            "effects": effects,
        })
    factor_entries.sort(key=lambda e: (-e["importance"], e["factor"]))

    interaction_entries = []
    for first, second in interactions:
        lf_all, lg_all = varying[first], varying[second]
        grid: Dict[str, Dict[str, float]] = {}
        # Coefficients for the (L_f - 1) x (L_g - 1) corner...
        for lf in lf_all[:-1]:
            grid[_level_key(lf)] = {}
            for lg in lg_all[:-1]:
                grid[_level_key(lf)][_level_key(lg)] = beta[cursor]
                cursor += 1
        # ...then close rows and columns by the sum-to-zero constraint.
        for lf in lf_all[:-1]:
            row_effects = grid[_level_key(lf)]
            row_effects[_level_key(lg_all[-1])] = -sum(row_effects.values())
        grid[_level_key(lf_all[-1])] = {
            _level_key(lg): -sum(
                grid[_level_key(lf)][_level_key(lg)] for lf in lf_all[:-1]
            )
            for lg in lg_all
        }
        flat = [v for row in grid.values() for v in row.values()]
        interaction_entries.append({
            "factors": [first, second],
            "importance": max(flat) - min(flat),
            "effects": grid,
        })
    interaction_entries.sort(
        key=lambda e: (-e["importance"], e["factors"])
    )

    return EffectsModel(
        response=response,
        mean=mean,
        r_squared=r_squared,
        observations=len(points),
        factors=factor_entries,
        interactions=interaction_entries,
    )
