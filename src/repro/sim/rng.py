"""Seeded random-number utilities with named substreams.

Every stochastic component (workload generators, fault injectors, trace
synthesis) draws from a :class:`SeededRNG` substream derived from one
root seed, so whole experiments replay identically while components stay
statistically independent of one another.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["SeededRNG", "ZipfGenerator"]


class SeededRNG:
    """Thin wrapper over ``numpy.random.Generator`` with stream derivation.

    ``derive("voltdb/clients")`` produces a child whose seed is a stable
    hash of (parent seed, name) — adding a new consumer never perturbs the
    draws seen by existing ones.
    """

    def __init__(self, seed: int = 0, _label: str = "root"):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.label = _label
        self._gen = np.random.default_rng(self.seed)

    def derive(self, name: str) -> "SeededRNG":
        digest = hashlib.sha256(
            f"{self.seed}:{name}".encode("utf-8")
        ).digest()
        child_seed = int.from_bytes(digest[:8], "little")
        return SeededRNG(child_seed, _label=f"{self.label}/{name}")

    # -- draws ---------------------------------------------------------------
    def random(self) -> float:
        return float(self._gen.random())

    def uniform(self, low: float, high: float) -> float:
        return float(self._gen.uniform(low, high))

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive."""
        return int(self._gen.integers(low, high + 1))

    def choice(self, seq: Sequence):
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: List) -> None:
        self._gen.shuffle(items)

    def exponential(self, mean: float) -> float:
        return float(self._gen.exponential(mean))

    def normal(self, mean: float, stdev: float) -> float:
        return float(self._gen.normal(mean, stdev))

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(self._gen.lognormal(mean, sigma))

    def pareto(self, shape: float, scale: float = 1.0) -> float:
        return float(scale * (1.0 + self._gen.pareto(shape)))

    def bernoulli(self, p: float) -> bool:
        return bool(self._gen.random() < p)

    def bytes(self, n: int) -> bytes:
        return self._gen.bytes(n)

    @property
    def numpy(self) -> np.random.Generator:
        """Escape hatch for vectorized draws."""
        return self._gen


class ZipfGenerator:
    """Bounded Zipf(s) sampler over ranks ``0 .. n-1``.

    Implements inverse-CDF sampling over the truncated distribution
    (numpy's ``zipf`` is unbounded, which is wrong for a finite keyspace).
    Memcached key popularity in the ETC model follows Zipf with exponent
    1.0 over a fixed keyspace (paper §VI-E, citing Breslau et al.).
    """

    def __init__(self, n: int, exponent: float, rng: SeededRNG):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if exponent <= 0:
            raise ValueError(f"exponent must be > 0, got {exponent}")
        self.n = n
        self.exponent = exponent
        self._rng = rng
        weights = np.arange(1, n + 1, dtype=np.float64) ** (-exponent)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self) -> int:
        """One rank in [0, n)."""
        u = self._rng.random()
        return int(np.searchsorted(self._cdf, u, side="left"))

    def sample_many(self, count: int) -> np.ndarray:
        u = self._rng.numpy.random(count)
        return np.searchsorted(self._cdf, u, side="left")

    def probability(self, rank: int) -> float:
        """P(rank) for 0-based ``rank``."""
        if not 0 <= rank < self.n:
            raise ValueError(f"rank out of range: {rank}")
        lower = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lower)

    def head_mass(self, k: int) -> float:
        """Total probability of the k most popular keys."""
        if k <= 0:
            return 0.0
        k = min(k, self.n)
        return float(self._cdf[k - 1])
