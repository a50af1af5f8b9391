"""Integration tests for the loaded-regime saturation study.

Covers the closed-loop injection sweep end to end: think-scale
re-pacing of synthetic workloads, monotone loaded latency under
contention, knee interpolation, serial/parallel equivalence of
contended runs, and the ``flexsnoop figure saturation`` CLI surface.
"""

from __future__ import annotations

import pytest

from repro.harness.cli import main
from repro.harness.parallel import run_specs
from repro.harness.saturation import (
    Knee,
    SaturationCurve,
    SaturationPoint,
    _saturation_spec,
    format_saturation,
    run_saturation,
)
from repro.workloads.source import resolve_source

TINY = dict(
    workload="specjbb",
    accesses_per_core=150,
    warmup_fraction=0.0,
    jobs=1,
    cache=None,
)


def _point(offered, latency, scale=1.0, achieved=None):
    return SaturationPoint(
        think_scale=scale,
        offered_rate=offered,
        achieved_rate=achieved if achieved is not None else offered,
        latency=latency,
        exec_time=10_000,
        retries=0,
    )


# ----------------------------------------------------------------------
# Injection sweep physics


def test_two_point_sweep_latency_monotone_under_load():
    """Cutting think times must not *reduce* the loaded read-miss
    latency once link occupancy is finite."""
    (curve,) = run_saturation(
        algorithms=("lazy",),
        topologies=("ring",),
        think_scales=(1.0, 0.25),
        **TINY
    )
    assert len(curve.points) == 2
    light, heavy = sorted(
        curve.points, key=lambda p: p.offered_rate
    )
    assert light.think_scale == 1.0 and heavy.think_scale == 0.25
    assert heavy.offered_rate > light.offered_rate
    assert heavy.latency >= light.latency
    # The offered-rate extrapolation anchors on the lightest point.
    assert light.offered_rate == pytest.approx(light.achieved_rate)
    assert heavy.offered_rate == pytest.approx(
        light.achieved_rate * (1.0 / 0.25)
    )


def test_think_scale_repaces_without_changing_footprint():
    """The injection axis only stretches pacing: the re-paced trace
    touches exactly the addresses of the native one."""
    native = resolve_source(
        "specjbb", accesses_per_core=80, seed=0
    ).materialize()
    paced = resolve_source(
        "specjbb", accesses_per_core=80, seed=0, think_scale=0.3
    ).materialize()
    total_native = total_paced = 0
    for core_native, core_paced in zip(native.traces, paced.traces):
        assert [(a.address, a.is_write) for a in core_native] == [
            (a.address, a.is_write) for a in core_paced
        ]
        total_native += sum(a.think_time for a in core_native)
        total_paced += sum(a.think_time for a in core_paced)
    assert 0 < total_paced < total_native


def test_native_pacing_descriptor_unchanged():
    """An explicit ``think_scale=1.0`` must give the same source
    descriptor - and so the same cache key - as the unset default,
    and another scale a different one."""
    base = resolve_source("specjbb", accesses_per_core=80, seed=0)
    explicit = resolve_source(
        "specjbb", accesses_per_core=80, seed=0, think_scale=1.0
    )
    assert explicit.descriptor() == base.descriptor()
    paced = resolve_source(
        "specjbb", accesses_per_core=80, seed=0, think_scale=0.5
    )
    assert paced.descriptor() != base.descriptor()


# ----------------------------------------------------------------------
# Knee detection


def test_knee_interpolates_between_straddling_points():
    curve = SaturationCurve(
        algorithm="lazy", topology="ring", workload="synthetic"
    )
    curve.points = [
        _point(1.0, 100.0, scale=1.0),
        _point(2.0, 120.0, scale=0.5),
        _point(4.0, 300.0, scale=0.25),
    ]
    knee = curve.knee(factor=2.0)
    assert isinstance(knee, Knee)
    # Threshold 200 lies between (2.0, 120) and (4.0, 300):
    # frac = (200-120)/(300-120) = 4/9.
    assert knee.latency == pytest.approx(200.0)
    assert knee.offered_rate == pytest.approx(2.0 + 2.0 * 80.0 / 180.0)
    assert knee.think_scale == 0.25


def test_knee_none_when_curve_stays_flat():
    curve = SaturationCurve(
        algorithm="lazy", topology="ring", workload="synthetic"
    )
    curve.points = [
        _point(1.0, 100.0),
        _point(2.0, 150.0),
    ]
    assert curve.knee(factor=2.0) is None
    assert curve.saturation_throughput == 2.0
    assert curve.base_latency == 100.0


def test_knee_requires_two_points():
    curve = SaturationCurve(
        algorithm="lazy", topology="ring", workload="synthetic"
    )
    curve.points = [_point(1.0, 100.0)]
    assert curve.knee() is None


def test_format_reports_knee_and_summary():
    curve = SaturationCurve(
        algorithm="lazy", topology="ring", workload="synthetic"
    )
    curve.points = [
        _point(1.0, 100.0, scale=1.0),
        _point(4.0, 300.0, scale=0.25),
    ]
    text = format_saturation([curve])
    assert "Loaded latency [lazy, topology=ring, synthetic]" in text
    assert "knee:" in text
    assert "Saturation summary" in text
    assert "saturation throughput:" in text


# ----------------------------------------------------------------------
# Parallel-harness equivalence under contention (satellite: the
# contended cells must be scheduling-invariant)


def test_contended_runs_identical_serial_and_parallel():
    specs = [
        _saturation_spec(
            "lazy", "ring", "specjbb", scale,
            150, 0, 0.0, 30, True, 0, "object",
        )
        for scale in (1.0, 0.3)
    ]
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=2)
    for left, right in zip(serial, parallel):
        assert left.exec_time == right.exec_time
        assert left.stats.summary() == right.stats.summary()


# ----------------------------------------------------------------------
# CLI surface (acceptance: curves with knees for lazy/eager/oracle on
# ring and hier_ring - exercised here at smoke scale)


def test_figure_saturation_cli_all_pairs(capsys):
    rc = main([
        "figure", "saturation",
        "--workload", "specjbb",
        "--algorithms", "lazy,eager,oracle",
        "--topologies", "ring,hier_ring",
        "--think-scales", "1.0,0.3",
        "--scale", "120",
        "--jobs", "2",
        "--no-cache",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    for algorithm in ("lazy", "eager", "oracle"):
        for topology in ("ring", "hier_ring"):
            assert (
                "Loaded latency [%s, topology=%s"
                % (algorithm, topology)
            ) in out
    assert "Saturation summary" in out
    assert out.count("knee:") == 6


def test_figure_saturation_cli_rejects_bad_scales(capsys):
    rc = main([
        "figure", "saturation",
        "--think-scales", "1.0,zero",
    ])
    assert rc == 2
    assert "think-scales" in capsys.readouterr().err
