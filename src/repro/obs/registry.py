"""Counter and histogram registries.

Counters are monotonically increasing event tallies (Xenstore requests,
pages COW-shared, vifs enslaved); histograms record distributions of
virtual-time durations or sizes with power-of-two buckets. Both are
name-keyed and created lazily on first touch, following the
standardized-instrumentation model of gem5's stats framework: the same
registry shape for every run, so reports diff cleanly.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable

from repro.errors import InvalidArgumentError


class Counter:
    """A monotonically increasing named tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increment by ``n`` (must be non-negative)."""
        if n < 0:
            raise InvalidArgumentError(
                f"counter {self.name!r} cannot decrease by {n}")
        self.value += n

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {"name": self.name, "value": self.value}


#: Upper bounds of the default histogram buckets (virtual ms); the last
#: bucket is open-ended. Powers of four cover 1 us .. ~70 s.
DEFAULT_BUCKET_BOUNDS = tuple(0.001 * (4 ** i) for i in range(13))

#: Fine-grained bounds for per-request latency distributions (the
#: front-door P99 curves): a 1.25x geometric ladder from 10 us to ~7 s.
#: The power-of-four default is fine for per-stage breakdowns but far
#: too coarse to resolve a tail quantile.
LATENCY_BUCKET_BOUNDS = tuple(0.01 * (1.25 ** i) for i in range(60))


class Histogram:
    """A fixed-bucket histogram of observed values (virtual ms).

    Tracks count / sum / min / max exactly and the distribution
    approximately (bucket counts), which is enough for the per-stage
    latency tables and for run-report diffing.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str,
                 bounds: Iterable[float] = DEFAULT_BUCKET_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        if not self.bounds:
            raise InvalidArgumentError(
                f"histogram {self.name!r} needs >= 1 bucket bound")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # First bound >= value, or len(bounds) for the open-ended last
        # bucket — which is exactly buckets[len(bounds)].
        self.buckets[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts.

        Returns the upper bound of the bucket containing the ``q``-th
        observation (the exact max for the open-ended last bucket).
        """
        if not 0.0 <= q <= 1.0:
            raise InvalidArgumentError(f"quantile out of range: {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Lazily-created, name-keyed counters and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def histogram(self, name: str,
                  bounds: Iterable[float] | None = None) -> Histogram:
        """The histogram called ``name`` (created on first use).

        ``bounds`` only applies on creation; an existing histogram
        keeps the buckets it was born with.
        """
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = (
                Histogram(name) if bounds is None
                else Histogram(name, bounds))
        return histogram

    def clear(self) -> None:
        """Drop all counters and histograms."""
        self.counters.clear()
        self.histograms.clear()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation, sorted by name for stable diffs."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "histograms": {name: h.to_dict()
                           for name, h in sorted(self.histograms.items())},
        }
