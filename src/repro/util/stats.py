"""Streaming statistics helpers used across the profiler and reports."""

from __future__ import annotations

from collections import Counter
from typing import Iterable


class OnlineStats:
    """Single-pass mean / min / max / variance accumulator (Welford)."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def add(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "OnlineStats") -> None:
        """Fold another accumulator into this one (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)  # type: ignore[type-var]
        self.max = max(self.max, other.max)  # type: ignore[type-var]

    @property
    def variance(self) -> float:
        """Population variance of the observations seen so far."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OnlineStats(count={self.count}, mean={self.mean:.3f}, "
            f"min={self.min}, max={self.max})"
        )


class Histogram:
    """A counting histogram over hashable keys with share/ranking helpers."""

    def __init__(self) -> None:
        self._counts: Counter = Counter()

    def add(self, key, weight: int = 1) -> None:
        """Add *weight* observations of *key*."""
        self._counts[key] += weight

    def count(self, key) -> int:
        """Observations recorded for *key* (0 when never seen)."""
        return self._counts.get(key, 0)

    @property
    def total(self) -> int:
        """Total observations across all keys."""
        return sum(self._counts.values())

    def share(self, key) -> float:
        """Fraction of all observations attributed to *key*."""
        total = self.total
        if total == 0:
            return 0.0
        return self._counts.get(key, 0) / total

    def top(self, n: int | None = None) -> list[tuple[object, int]]:
        """Keys ordered by descending count; all of them when *n* is None."""
        items = self._counts.most_common(n)
        return items

    def keys(self) -> Iterable:
        """All keys with at least one observation."""
        return self._counts.keys()

    def items(self) -> Iterable[tuple[object, int]]:
        """(key, count) pairs in arbitrary order."""
        return self._counts.items()

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(total={self.total}, keys={len(self._counts)})"


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of *values*; 0.0 for an empty iterable."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(sorted_values: list[float], q: float) -> float:
    """The *q*-th percentile (0-100) of an already-sorted list.

    Linear interpolation between closest ranks; raises ``ValueError``
    for an empty list or a q outside [0, 100].
    """
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def weighted_mean(pairs: Iterable[tuple[float, float]]) -> float:
    """Mean of (value, weight) pairs; 0.0 when total weight is zero."""
    total_weight = 0.0
    total = 0.0
    for value, weight in pairs:
        total += value * weight
        total_weight += weight
    if total_weight == 0:
        return 0.0
    return total / total_weight
