"""Latency histograms with percentile queries.

The paper reports means; a downstream user tuning a real design wants
distributions - tail latency is what victimizes multi-GHz cores.  The
simulator records read-miss service times into a
:class:`LatencyHistogram` (log-spaced buckets, constant memory), which
reports percentiles, mean, and a compact text rendering.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple


class LatencyHistogram:
    """Log-spaced histogram of non-negative integer latencies.

    Buckets grow geometrically by ``growth`` starting at ``first``;
    values beyond the last edge land in an unbounded overflow bucket.
    Percentiles are resolved to a bucket's upper edge, which bounds
    the relative error by ``growth``.
    """

    def __init__(
        self,
        first: int = 16,
        growth: float = 1.5,
        buckets: int = 32,
    ) -> None:
        if first < 1 or growth <= 1.0 or buckets < 1:
            raise ValueError("invalid histogram geometry")
        self.edges: List[int] = []
        edge = float(first)
        previous = 0
        for _ in range(buckets):
            # Slow-growth geometries (e.g. growth=1.001) produce runs
            # of equal integers after ceil; edges must be strictly
            # increasing for _bucket_of's binary search to be
            # well-defined, so collapse duplicates upward.
            integer_edge = max(int(math.ceil(edge)), previous + 1)
            self.edges.append(integer_edge)
            previous = integer_edge
            edge *= growth
        self.counts: List[int] = [0] * (buckets + 1)  # + overflow
        self.total = 0
        self.sum = 0
        self.max_value = 0
        self.min_value: int = -1

    def record(self, value: int) -> None:
        if value < 0:
            raise ValueError("latencies are non-negative")
        self.total += 1
        self.sum += value
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value or self.min_value < 0:
            self.min_value = value
        self.counts[self._bucket_of(value)] += 1

    def _bucket_of(self, value: int) -> int:
        """Index of the first edge at or above ``value`` (the overflow
        bucket's index past the last edge)."""
        return bisect_left(self.edges, value)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, p: float) -> int:
        """Upper edge of the bucket containing the p-th percentile
        (p in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.total == 0:
            return 0
        target = math.ceil(self.total * p / 100.0)
        target = max(target, 1)
        running = 0
        for index, count in enumerate(self.counts):
            running += count
            if running >= target:
                if index < len(self.edges):
                    return self.edges[index]
                return self.max_value
        return self.max_value

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max_value,
        }

    def nonzero_buckets(self) -> List[Tuple[str, int]]:
        """(range label, count) for populated buckets, for display."""
        rows: List[Tuple[str, int]] = []
        lower = 0
        for index, count in enumerate(self.counts):
            if index < len(self.edges):
                label = "%d-%d" % (lower, self.edges[index])
                lower = self.edges[index] + 1
            else:
                label = ">%d" % self.edges[-1]
            if count:
                rows.append((label, count))
        return rows

    def __eq__(self, other: object) -> bool:
        """Value equality: same geometry and same recorded samples.

        Needed so results that cross a process boundary (the parallel
        harness pickles them back to the parent) compare equal to
        locally computed ones.
        """
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (
            self.edges == other.edges
            and self.counts == other.counts
            and self.total == other.total
            and self.sum == other.sum
            and self.max_value == other.max_value
            and self.min_value == other.min_value
        )

    __hash__ = None  # mutable container

    def render(self, width: int = 40) -> str:
        """Compact text rendering (one line per populated bucket)."""
        rows = self.nonzero_buckets()
        if not rows:
            return "(empty)"
        peak = max(count for _, count in rows)
        lines = []
        for label, count in rows:
            bar = "#" * max(1, int(round(width * count / peak)))
            lines.append("%16s %8d |%s" % (label, count, bar))
        return "\n".join(lines)


def merge(histograms: Sequence[LatencyHistogram]) -> LatencyHistogram:
    """Merge histograms with identical geometry.

    The merged histogram copies the first histogram's geometry
    directly rather than re-deriving (first, growth, buckets) from the
    integer edges - the derivation is lossy (``edges[1]/edges[0]``
    can fall at or below 1.0 for slow-growth geometries) and the
    constructor would reject parameters it itself produced.
    """
    if not histograms:
        raise ValueError("nothing to merge")
    first = histograms[0]
    merged = LatencyHistogram.__new__(LatencyHistogram)
    merged.edges = list(first.edges)
    merged.counts = [0] * len(first.counts)
    merged.total = 0
    merged.sum = 0
    merged.max_value = 0
    merged.min_value = -1
    for histogram in histograms:
        if histogram.edges != merged.edges:
            raise ValueError("histogram geometries differ")
        for index, count in enumerate(histogram.counts):
            merged.counts[index] += count
        merged.total += histogram.total
        merged.sum += histogram.sum
        merged.max_value = max(merged.max_value, histogram.max_value)
        if histogram.min_value >= 0:
            merged.min_value = (
                histogram.min_value
                if merged.min_value < 0
                else min(merged.min_value, histogram.min_value)
            )
    return merged
