"""Unit tests for the parameter-sweep utility."""

from __future__ import annotations

import pytest

from repro.harness.sweep import (
    Sweep,
    SweepPoint,
    field_mutator,
    run_sweep,
    sweep_memory_field,
    sweep_predictor_entries,
    sweep_ring_field,
    valid_sweep_fields,
)

FAST = dict(workload="specjbb", accesses_per_core=150,
            warmup_fraction=0.0)


def test_sweep_ring_snoop_time_changes_latency():
    sweep = sweep_ring_field(
        "snoop_time", [10, 110], algorithm="lazy", **FAST
    )
    latency = sweep.series("mean_read_miss_latency")
    assert latency[110] > latency[10]
    assert sweep.name == "ring.snoop_time"
    # The config actually carried the swept value.
    assert sweep.points[0].result.config.ring.snoop_time == 10


def test_sweep_series_reads_result_attributes():
    sweep = sweep_ring_field(
        "hop_latency", [20, 80], algorithm="lazy", **FAST
    )
    exec_series = sweep.series("exec_time")
    assert exec_series[80] > exec_series[20]


def test_normalized_series():
    sweep = Sweep(name="demo")

    class FakeResult:
        def __init__(self, exec_time):
            self.exec_time = exec_time

    sweep.points = [
        SweepPoint(1, FakeResult(100.0)),
        SweepPoint(2, FakeResult(150.0)),
    ]
    normalized = sweep.normalized_series("exec_time", baseline=1)
    assert normalized == {1: 1.0, 2: 1.5}
    with pytest.raises(KeyError):
        sweep.normalized_series("exec_time", baseline=99)


def test_normalized_series_missing_baseline_message():
    sweep = Sweep(name="demo")

    class FakeResult:
        exec_time = 10.0

    sweep.points = [SweepPoint(1, FakeResult())]
    with pytest.raises(KeyError, match="not swept"):
        sweep.normalized_series("exec_time", baseline=2)


def test_normalized_series_zero_reference():
    sweep = Sweep(name="demo")

    class FakeResult:
        def __init__(self, exec_time):
            self.exec_time = exec_time

    sweep.points = [
        SweepPoint(1, FakeResult(0.0)),
        SweepPoint(2, FakeResult(5.0)),
    ]
    with pytest.raises(ZeroDivisionError, match="baseline metric"):
        sweep.normalized_series("exec_time", baseline=1)


def test_normalized_series_empty_sweep():
    sweep = Sweep(name="empty")
    with pytest.raises(KeyError):
        sweep.normalized_series("exec_time", baseline=1)


def test_sweep_results_cached(tmp_path):
    from repro.harness.result_cache import ResultCache

    cache = ResultCache(root=tmp_path / "cache")
    first = sweep_ring_field(
        "snoop_time", [10, 110], algorithm="lazy", cache=cache, **FAST
    )
    assert cache.stores == 2
    second = sweep_ring_field(
        "snoop_time", [10, 110], algorithm="lazy", cache=cache, **FAST
    )
    assert cache.hits == 2 and cache.stores == 2
    assert (
        second.series("exec_time") == first.series("exec_time")
    )


def test_sweep_memory_prefetch_toggle():
    sweep = sweep_memory_field(
        "prefetch_on_snoop", [True, False], algorithm="lazy", **FAST
    )
    latency = sweep.series("mean_read_miss_latency")
    assert latency[False] >= latency[True]


def test_sweep_predictor_entries():
    sweep = sweep_predictor_entries(
        [512, 2048], algorithm="subset", **FAST
    )
    assert [p.value for p in sweep.points] == [512, 2048]
    assert sweep.points[0].result.config.predictor.entries == 512
    assert sweep.points[1].result.config.predictor.entries == 2048


def test_run_sweep_resolves_dotted_field_without_mutator():
    sweep = run_sweep(
        "ring.snoop_time", [10, 110], algorithm="lazy", **FAST
    )
    latency = sweep.series("mean_read_miss_latency")
    assert latency[110] > latency[10]
    assert sweep.points[0].result.config.ring.snoop_time == 10


def test_run_sweep_accepts_field_path_as_mutate_string():
    sweep = run_sweep(
        "rtt", [200, 600], mutate="memory.local_round_trip",
        algorithm="lazy", **FAST
    )
    assert sweep.name == "rtt"
    assert (
        sweep.points[1].result.config.memory.local_round_trip == 600
    )


def test_run_sweep_resolves_scalar_field():
    sweep = run_sweep(
        "squash_backoff", [100, 300], algorithm="lazy", **FAST
    )
    assert sweep.points[0].result.config.squash_backoff == 100
    assert sweep.points[1].result.config.squash_backoff == 300


def test_field_mutator_typo_lists_valid_fields():
    with pytest.raises(ValueError) as err:
        field_mutator("ring.link_occupncy")
    message = str(err.value)
    assert "ring.link_occupncy" in message
    assert "ring.link_occupancy" in message
    assert "memory.local_round_trip" in message


def test_field_mutator_rejects_deep_paths():
    with pytest.raises(ValueError):
        field_mutator("ring.link_occupancy.extra")


def test_valid_sweep_fields_enumerates_config():
    fields = valid_sweep_fields()
    assert fields == sorted(fields)
    for expected in (
        "ring.link_occupancy",
        "ring.serialize_snoop_port",
        "memory.local_round_trip",
        "predictor.entries",
        "squash_backoff",
        "num_cmps",
    ):
        assert expected in fields
    # Sections themselves are not sweepable - only their leaves.
    assert "ring" not in fields
    # Knobs no model reads are not offered: sweeping them would print
    # the same result for every value.
    for inert in (
        "ring.gateway_latency",
        "cache.line_size",
        "processor.default_think_time",
        "processor.max_outstanding_writes",
    ):
        assert inert not in fields


def test_custom_mutator():
    calls = []

    def mutate(config, value):
        calls.append(value)
        return config.replace(squash_backoff=value)

    sweep = run_sweep("backoff", [100, 300], mutate,
                      algorithm="lazy", **FAST)
    assert calls == [100, 300]
    assert sweep.points[1].result.config.squash_backoff == 300
