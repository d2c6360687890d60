"""Statistics instrumentation for simulations and benchmarks.

Latency CDFs (Fig. 8), sustained-bandwidth aggregation (Fig. 5) and the
fragmentation metrics of Fig. 1 are all computed with the helpers here,
so that every benchmark reports numbers through one audited code path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

from ..accel import ops

__all__ = [
    "RunningStats",
    "Histogram",
    "LatencyRecorder",
    "TimeWeightedValue",
    "percentile",
    "cdf_points",
]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence.

    ``q`` is in [0, 100]. Matches numpy's default ("linear") method so
    results agree with any cross-checking done with numpy directly.
    """
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(sorted_values[low])
    frac = rank - low
    return float(sorted_values[low] * (1 - frac) + sorted_values[high] * frac)


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) points, sorted."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


class RunningStats:
    """Welford online mean/variance plus min/max, O(1) memory."""

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def add_repeated(self, value: float, count: int) -> None:
        """Record ``value`` ``count`` times.

        Replaces the burst datapath's per-cacheline ``add`` loops. The
        Welford recurrence is genuinely sequential, so the updates run
        here with locally-bound state — the identical operation
        sequence (hence bit-identical mean/m2) at a fraction of the
        attribute-access cost.
        """
        if count <= 0:
            return
        value = float(value)
        n = self.count
        total = self.total
        mean = self._mean
        m2 = self._m2
        for _ in range(count):
            n += 1
            total += value
            delta = value - mean
            mean += delta / n
            m2 += delta * (value - mean)
        self.count = n
        self.total = total
        self._mean = mean
        self._m2 = m2
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Parallel-merge two Welford accumulators (Chan's algorithm)."""
        merged = RunningStats(self.name)
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other.mean - self.mean
        merged._mean = self.mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        merged.total = self.total + other.total
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunningStats({self.name!r}, n={self.count}, "
            f"mean={self.mean:.4g}, sd={self.stdev:.4g})"
        )


class Histogram:
    """Fixed-bin histogram over [low, high) with under/overflow bins."""

    def __init__(self, low: float, high: float, bins: int, name: str = ""):
        if high <= low:
            raise ValueError(f"need high > low, got [{low}, {high})")
        if bins < 1:
            raise ValueError(f"need bins >= 1, got {bins}")
        self.low = low
        self.high = high
        self.bins = bins
        self.name = name
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self._width = (high - low) / bins

    def add(self, value: float) -> None:
        if value < self.low:
            self.underflow += 1
        elif value >= self.high:
            self.overflow += 1
        else:
            self.counts[int((value - self.low) / self._width)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def bin_edges(self) -> List[float]:
        return [self.low + i * self._width for i in range(self.bins + 1)]

    def normalized(self) -> List[float]:
        total = self.total
        if total == 0:
            return [0.0] * self.bins
        return [c / total for c in self.counts]

    def render(self, width: int = 40) -> str:
        """ASCII bar rendering, one line per bin.

        Empty bins render a bar of zero characters (never a division by
        zero); a histogram with no samples at all renders every bin that
        way, plus the under/overflow tallies.
        """
        peak = max(self.counts) if self.counts else 0
        lines = []
        if self.name:
            lines.append(f"{self.name} (n={self.total})")
        for index, count in enumerate(self.counts):
            low_edge = self.low + index * self._width
            high_edge = low_edge + self._width
            bar = "#" * (round(count / peak * width) if peak else 0)
            lines.append(
                f"[{low_edge:>12.6g}, {high_edge:>12.6g})"
                f" {count:>8} {bar}"
            )
        if self.underflow:
            lines.append(f"{'underflow':>27} {self.underflow:>8}")
        if self.overflow:
            lines.append(f"{'overflow':>27} {self.overflow:>8}")
        return "\n".join(lines)


class LatencyRecorder:
    """Stores every sample; provides mean / percentiles / CDF.

    Used for the Memcached GET latency CDF (Fig. 8) and datapath RTT
    distributions, where exact tail percentiles matter.
    """

    def __init__(self, name: str = ""):
        self.name = name
        #: Samples in arrival order; sorted in place lazily at query time.
        #: Per-sample ``insort`` was O(n) per append and dominated long
        #: benchmark runs that only read percentiles at the end.
        self._samples: List[float] = []
        self._is_sorted = True
        self.stats = RunningStats(name)

    def add(self, value: float) -> None:
        self._samples.append(float(value))
        self._is_sorted = False
        self.stats.add(value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def add_repeated(self, value: float, count: int) -> None:
        """Record ``value`` ``count`` times (burst RTT segments)."""
        if count <= 0:
            return
        value = float(value)
        self._samples.extend([value] * count)
        self._is_sorted = False
        self.stats.add_repeated(value, count)

    def _ensure_sorted(self) -> List[float]:
        if not self._is_sorted:
            self._samples = ops.sort_values(self._samples)
            self._is_sorted = True
        return self._samples

    @property
    def _sorted(self) -> List[float]:
        # Kept under the historical name for callers that peeked at the
        # sorted sample list directly.
        return self._ensure_sorted()

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def mean(self) -> float:
        return self.stats.mean

    def percentile(self, q: float) -> float:
        return percentile(self._ensure_sorted(), q)

    def cdf(self) -> List[Tuple[float, float]]:
        ordered = self._ensure_sorted()
        n = len(ordered)
        return [(v, (i + 1) / n) for i, v in enumerate(ordered)]

    def fraction_below(self, threshold: float) -> float:
        ordered = self._ensure_sorted()
        if not ordered:
            return 0.0
        return bisect_left(ordered, threshold) / len(ordered)

    def degradation_at(self, q: float) -> float:
        """Tail degradation: p(q) relative to the mean, as a fraction.

        Fig. 8's commentary reports e.g. "90% of requests served with only
        19% degradation compared to the average latency"; this computes
        exactly that quantity.
        """
        if self.mean == 0:
            return 0.0
        return self.percentile(q) / self.mean - 1.0


class TimeWeightedValue:
    """Integrates a piecewise-constant signal over simulated time.

    Used for time-averaged utilization metrics (e.g. utilized CPU cores,
    link occupancy).
    """

    def __init__(self, now: float = 0.0, initial: float = 0.0, name: str = ""):
        self.name = name
        self._last_time = now
        self._value = initial
        self._area = 0.0
        self._start = now

    @property
    def value(self) -> float:
        return self._value

    def reset(self, now: float) -> None:
        """Restart integration at ``now`` (e.g. after a warm-up phase)."""
        self._start = now
        self._last_time = now
        self._area = 0.0

    def update(self, now: float, value: float) -> None:
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time}"
            )
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value

    def adjust(self, now: float, delta: float) -> None:
        self.update(now, self._value + delta)

    def time_average(self, now: float) -> float:
        span = now - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_time)
        return area / span
