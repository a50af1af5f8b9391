"""Unit tests for the latency histogram."""

from __future__ import annotations

import random

import pytest

from repro.metrics.histogram import LatencyHistogram, merge


def test_empty_histogram():
    histogram = LatencyHistogram()
    assert histogram.total == 0
    assert histogram.mean == 0.0
    assert histogram.percentile(50) == 0
    assert histogram.render() == "(empty)"


def test_mean_and_count():
    histogram = LatencyHistogram()
    for value in (10, 20, 30):
        histogram.record(value)
    assert histogram.total == 3
    assert histogram.mean == pytest.approx(20.0)
    assert histogram.max_value == 30
    assert histogram.min_value == 10


def test_negative_rejected():
    with pytest.raises(ValueError):
        LatencyHistogram().record(-1)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        LatencyHistogram(first=0)
    with pytest.raises(ValueError):
        LatencyHistogram(growth=1.0)
    with pytest.raises(ValueError):
        LatencyHistogram(buckets=0)


def test_percentile_bounds_value():
    histogram = LatencyHistogram(first=16, growth=1.5, buckets=32)
    values = [random.Random(5).randint(0, 5000) for _ in range(2000)]
    for value in values:
        histogram.record(value)
    values.sort()
    for p in (50, 90, 99):
        exact = values[int(len(values) * p / 100) - 1]
        estimate = histogram.percentile(p)
        # The log-bucket estimate is an upper bound within one growth
        # factor of the exact percentile.
        assert estimate >= exact * 0.95
        assert estimate <= max(exact * 1.6, exact + 16)


def test_percentile_validation():
    with pytest.raises(ValueError):
        LatencyHistogram().percentile(101)


def test_overflow_bucket():
    histogram = LatencyHistogram(first=4, growth=2.0, buckets=3)
    # Edges: 4, 8, 16; 100 overflows.
    histogram.record(100)
    assert histogram.percentile(100) == 100
    labels = [label for label, _ in histogram.nonzero_buckets()]
    assert labels == [">16"]


def test_summary_keys():
    histogram = LatencyHistogram()
    histogram.record(50)
    summary = histogram.summary()
    assert set(summary) == {"count", "mean", "p50", "p90", "p99", "max"}


def test_render_has_bars():
    histogram = LatencyHistogram()
    for value in (10, 10, 10, 500):
        histogram.record(value)
    text = histogram.render(width=10)
    assert "#" in text
    assert len(text.splitlines()) == 2


def test_merge():
    a = LatencyHistogram()
    b = LatencyHistogram()
    for value in (10, 20):
        a.record(value)
    for value in (30, 40):
        b.record(value)
    merged = merge([a, b])
    assert merged.total == 4
    assert merged.mean == pytest.approx(25.0)
    assert merged.max_value == 40
    assert merged.min_value == 10


def test_slow_growth_edges_strictly_increase():
    histogram = LatencyHistogram(first=16, growth=1.001, buckets=32)
    assert histogram.edges == sorted(set(histogram.edges))
    # Every value lands in exactly one well-defined bucket.
    for value in (0, 16, 17, 40, 48, 49, 10_000):
        bucket = histogram._bucket_of(value)
        assert 0 <= bucket <= len(histogram.edges)
        histogram.record(value)
    assert histogram.total == 7


def test_merge_survives_slow_growth_geometry():
    # Before the geometry was copied, merge() re-derived growth as
    # edges[1]/edges[0], which the duplicate-collapsed integer edges
    # of a slow-growth histogram push to <= 1.0 - and the constructor
    # then rejected parameters it had itself produced.
    a = LatencyHistogram(first=16, growth=1.001, buckets=32)
    b = LatencyHistogram(first=16, growth=1.001, buckets=32)
    for value in (10, 20):
        a.record(value)
    for value in (30, 40):
        b.record(value)
    merged = merge([a, b])
    assert merged.edges == a.edges
    assert merged.total == 4
    assert merged.max_value == 40
    assert merged.min_value == 10
    # The merged histogram is a full LatencyHistogram: it records and
    # compares like one.
    merged.record(25)
    assert merged.total == 5
    assert merge([a]) != merged


def test_merge_rejects_mismatched_geometry():
    a = LatencyHistogram(first=16)
    b = LatencyHistogram(first=32)
    a.record(1)
    b.record(1)
    with pytest.raises(ValueError):
        merge([a, b])


def test_merge_empty_list_rejected():
    with pytest.raises(ValueError):
        merge([])


@pytest.mark.parametrize("core", ["object", "soa"])
def test_system_populates_histogram(core):
    from repro.harness.experiments import run_experiment

    result = run_experiment(
        "lazy", "specjbb", accesses_per_core=200, core=core
    )
    assert result.core == core
    histogram = result.stats.read_miss_histogram
    assert histogram.total == result.stats.read_miss_count
    assert histogram.mean == pytest.approx(
        result.stats.mean_read_miss_latency
    )
    assert histogram.percentile(99) >= histogram.percentile(50)
