"""Human-readable end-of-run summary tables.

One formatter shared by everything that reports numbers to a terminal:
the ``python -m repro demo`` walk-through, ``examples/quickstart.py``
and the ``python -m repro trace`` artifacts all render through
:class:`RunSummary`, so ad-hoc ``print`` reporting and real traced runs
share a single code path (and a single look).

Stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

__all__ = ["RunSummary", "summary_from_snapshot"]

Value = Union[str, int, float]


def _format_value(value: Value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.4g}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return str(value)


class RunSummary:
    """Sectioned label/value report rendered as an aligned text table."""

    def __init__(self, title: str):
        self.title = title
        self._sections: List[Tuple[str, List[Tuple[str, str]]]] = []

    def section(self, heading: str) -> "RunSummary":
        """Open a new section; subsequent rows land in it."""
        self._sections.append((heading, []))
        return self

    def row(self, label: str, value: Value, unit: str = "") -> "RunSummary":
        """Add one label/value row to the current section."""
        if not self._sections:
            self.section("")
        rendered = _format_value(value)
        if unit:
            rendered = f"{rendered} {unit}"
        self._sections[-1][1].append((label, rendered))
        return self

    def render(self) -> str:
        """Aligned text: a title bar, sections, two padded columns."""
        lines = [f"== {self.title} =="]
        label_width = max(
            (len(label) for _h, rows in self._sections for label, _v in rows),
            default=0,
        )
        for heading, rows in self._sections:
            if heading:
                lines.append(f"-- {heading} --")
            for label, value in rows:
                lines.append(f"  {label.ljust(label_width)}  {value}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def summary_from_snapshot(
    title: str,
    snapshot: Dict[str, float],
    prefixes: Optional[List[str]] = None,
    skip_zero: bool = True,
) -> RunSummary:
    """Group a flat metrics snapshot into a sectioned summary.

    Metrics are grouped by their first dotted component (``llc.*``,
    ``dram.*``, ...). ``prefixes`` restricts and orders the sections;
    by default every prefix present appears, alphabetically.
    ``skip_zero`` drops zero-valued rows so short runs stay readable.
    """
    groups: Dict[str, List[Tuple[str, float]]] = {}
    for qualified, value in snapshot.items():
        prefix = qualified.split(".", 1)[0].split("{", 1)[0]
        groups.setdefault(prefix, []).append((qualified, value))
    ordered = prefixes if prefixes is not None else sorted(groups)
    summary = RunSummary(title)
    for prefix in ordered:
        rows = [
            (name, value)
            for name, value in groups.get(prefix, [])
            if not (skip_zero and value == 0)
        ]
        if not rows:
            continue
        summary.section(prefix)
        for name, value in rows:
            summary.row(name, value)
    return summary
