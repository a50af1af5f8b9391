"""Generated histogram geometries: ``LatencyHistogram`` buckets and
records exactly as the hand-written binary search it replaced.

The reference below is that search and that ``record``, kept here as
the oracle.  Geometries are drawn from fast to very slow growth, so
many draws collapse runs of equal ceil'd edges upward; values sit
below, on and just beyond every edge, and far past the last one.

Tier-1 runs a fast profile; set ``FLEXSNOOP_PROPERTY_EXAMPLES`` (e.g.
to 200) for a long run.
"""

from __future__ import annotations

import os
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.histogram import LatencyHistogram

EXAMPLES = int(os.environ.get("FLEXSNOOP_PROPERTY_EXAMPLES", "60"))


def reference_bucket(edges: List[int], value: int) -> int:
    lo, hi = 0, len(edges)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= edges[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


class ReferenceRecord:
    """The per-sample bookkeeping ``record`` did with ``max``/``min``."""

    def __init__(self, buckets: int) -> None:
        self.counts = [0] * (buckets + 1)
        self.total = 0
        self.sum = 0
        self.max_value = 0
        self.min_value = -1

    def record(self, edges: List[int], value: int) -> None:
        self.total += 1
        self.sum += value
        self.max_value = max(self.max_value, value)
        self.min_value = (
            value if self.min_value < 0 else min(self.min_value, value)
        )
        self.counts[reference_bucket(edges, value)] += 1


geometries = st.tuples(
    st.integers(1, 5000),
    st.one_of(
        st.floats(1.0001, 1.05),  # slow: runs of collapsed edges
        st.floats(1.05, 4.0),
    ),
    st.integers(1, 48),
)


@given(geometries, st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_buckets_and_records_match_the_binary_search(geometry, data):
    first, growth, buckets = geometry
    histogram = LatencyHistogram(first=first, growth=growth, buckets=buckets)
    edges = histogram.edges
    assert all(a < b for a, b in zip(edges, edges[1:]))
    probes = [0, edges[-1] * 10 + 7]
    for edge in edges:
        probes.extend((edge - 1, edge, edge + 1))
    probes.extend(
        data.draw(st.lists(st.integers(0, edges[-1] * 2), max_size=40))
    )
    reference = ReferenceRecord(buckets)
    for value in probes:
        assert histogram._bucket_of(value) == reference_bucket(edges, value)
        histogram.record(value)
        reference.record(edges, value)
        assert (
            histogram.counts,
            histogram.total,
            histogram.sum,
            histogram.max_value,
            histogram.min_value,
        ) == (
            reference.counts,
            reference.total,
            reference.sum,
            reference.max_value,
            reference.min_value,
        )
