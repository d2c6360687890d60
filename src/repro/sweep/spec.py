"""Declarative, hashable description of one simulation run.

A :class:`RunSpec` names *what* to run (a target in one of three
addressable namespaces), *how* (JSON-canonical keyword arguments and an
optional seed) and *against which code* (a fingerprint of the source
tree). Two specs with the same :attr:`RunSpec.key` are guaranteed to
describe the same computation on the same code, which is what makes the
content-addressed result cache sound.

Target namespaces (resolved by :mod:`repro.sweep.engine`):

* ``slice:<name>``  — a figure slice from ``repro.figures.SLICES``
  (the unit of parallelism when regenerating paper figures);
* ``figure:<name>`` — a whole figure function from
  ``repro.figures.FIGURES``;
* ``py:<module>:<function>`` — any importable function returning a
  JSON-serializable value (used by the benchmark drivers).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional

from .fingerprint import combine_fingerprints, file_digest, source_fingerprint

__all__ = ["RunSpec", "make_spec"]


def _canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


@dataclass(frozen=True)
class RunSpec:
    """One hashable unit of sweep work. Build via :func:`make_spec`."""

    target: str
    kwargs_json: str
    seed: Optional[int]
    fingerprint: str

    @property
    def kwargs(self) -> Dict[str, Any]:
        return json.loads(self.kwargs_json)

    @property
    def key(self) -> str:
        """Content address: sha256 over the canonical spec envelope."""
        envelope = _canonical_json(
            {
                "target": self.target,
                "kwargs": json.loads(self.kwargs_json),
                "seed": self.seed,
                "fingerprint": self.fingerprint,
            }
        )
        return hashlib.sha256(envelope.encode("utf-8")).hexdigest()

    def payload(self) -> Dict[str, Any]:
        """Picklable dict shipped to worker processes."""
        return {
            "target": self.target,
            "kwargs": self.kwargs,
            "seed": self.seed,
            "key": self.key,
        }

    def describe(self) -> str:
        seed = f" seed={self.seed}" if self.seed is not None else ""
        return f"{self.target} {self.kwargs_json}{seed}"


def make_spec(
    target: str,
    *,
    seed: Optional[int] = None,
    fingerprint: Optional[str] = None,
    extra_files: Iterable[str] = (),
    **kwargs: Any,
) -> RunSpec:
    """Build a :class:`RunSpec` with a canonicalized kwargs payload.

    ``extra_files`` extends the default source fingerprint with files
    outside the ``repro`` package that the target's behaviour depends
    on (e.g. the benchmark module defining a ``py:`` target). Kwargs
    must be JSON-serializable — tuples become lists, and the target
    sees the round-tripped values, so in-process and subprocess
    execution receive identical arguments.
    """
    kwargs_json = _canonical_json(kwargs)
    if fingerprint is None:
        fingerprint = combine_fingerprints(
            source_fingerprint(),
            *[file_digest(path) for path in extra_files],
        )
    return RunSpec(
        target=target,
        kwargs_json=kwargs_json,
        seed=seed,
        fingerprint=fingerprint,
    )
