"""Integration tests for system internals: the line registry hooks,
version checking plumbing, multi-ring mapping, and rerun protection."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.config import CacheConfig, TraceConfig, default_machine
from repro.coherence.protocol import CoherenceError
from repro.coherence.cache import CacheLine
from repro.coherence.states import LineState
from repro.core.algorithms import build_algorithm
from repro.registry import REGISTRY
from repro.sim.system import RingMultiprocessor
from repro.workloads.profiles import build_workload
from repro.workloads.trace import Access, WorkloadTrace


def empty_system(num_cmps=4, cores_per_cmp=2, **overrides):
    traces = [[] for _ in range(num_cmps * cores_per_cmp)]
    workload = WorkloadTrace(
        name="empty", cores_per_cmp=cores_per_cmp, traces=traces
    )
    machine = default_machine(
        algorithm="lazy",
        num_cmps=num_cmps,
        cores_per_cmp=cores_per_cmp,
        cache=CacheConfig(num_lines=64, associativity=4),
        **overrides,
    )
    return RingMultiprocessor(machine, build_algorithm("lazy"),
                              workload)


def test_registry_tracks_supplier_moves():
    system = empty_system()
    cache_a = system.nodes[0].caches[0]
    cache_b = system.nodes[2].caches[1]
    cache_a.fill(0x10, LineState.E)
    assert system._find_global_supplier(0x10) == (0, 0)
    assert system._cmp_has_supplier(0, 0x10)
    assert not system._cmp_has_supplier(2, 0x10)
    cache_a.set_state(0x10, LineState.SL)  # supplier lost
    assert system._find_global_supplier(0x10) is None
    cache_b.fill(0x10, LineState.D)
    assert system._find_global_supplier(0x10) == (2, 1)


def test_registry_rejects_second_supplier():
    system = empty_system()
    system.nodes[0].caches[0].fill(0x10, LineState.E)
    with pytest.raises(CoherenceError):
        system.nodes[1].caches[0].fill(0x10, LineState.D)


def test_holder_count_reference_counting():
    system = empty_system()
    system.nodes[0].caches[0].fill(0x20, LineState.S)
    system.nodes[1].caches[0].fill(0x20, LineState.S)
    assert system._any_holder(0x20)
    system.nodes[0].caches[0].invalidate(0x20)
    assert system._any_holder(0x20)
    system.nodes[1].caches[0].invalidate(0x20)
    assert not system._any_holder(0x20)


def test_system_runs_once_only():
    system = empty_system()
    system.run()
    with pytest.raises(RuntimeError):
        system.run()


def test_mismatched_workload_rejected():
    traces = [[] for _ in range(6)]
    workload = WorkloadTrace(name="w", cores_per_cmp=2, traces=traces)
    machine = default_machine(algorithm="lazy", num_cmps=4,
                              cores_per_cmp=2)
    with pytest.raises(ValueError):
        RingMultiprocessor(machine, build_algorithm("lazy"), workload)

    workload = WorkloadTrace(
        name="w", cores_per_cmp=1, traces=[[] for _ in range(4)]
    )
    with pytest.raises(ValueError):
        RingMultiprocessor(machine, build_algorithm("lazy"), workload)


def test_version_checker_flags_stale_data():
    system = empty_system(track_versions=True)
    system._last_completed_write[0x30] = 7
    system._check_version(0x30, obtained=6)
    assert system.stats.version_violations == 1
    system._check_version(0x30, obtained=7)
    assert system.stats.version_violations == 1


def test_version_checker_disabled_by_default():
    system = empty_system()
    system._last_completed_write[0x30] = 7
    system._check_version(0x30, obtained=1)
    assert system.stats.version_violations == 0


def test_ring_assignment_balances_addresses():
    system = empty_system()
    from repro.workloads.synthetic import scramble

    counts = [0, 0]
    for logical in range(2000):
        counts[system.topology.ring_of(scramble(logical))] += 1
    assert abs(counts[0] - counts[1]) < 0.15 * sum(counts)


def test_invariant_checker_runs_on_demand():
    system = empty_system(check_invariants=True)
    system.nodes[0].caches[0].fill(0x40, LineState.T)
    system.nodes[1].caches[0].fill(0x40, LineState.S)
    system._check_line_invariants(0x40)  # compatible: no raise
    # Force an incompatible snapshot bypassing the registry.
    cache = system.nodes[2].caches[0]
    cache._sets[0x40 % cache.config.num_sets][0x40] = type(
        next(iter(system.nodes[0].caches[0].iter_lines()))
    )(address=0x40, state=LineState.D, version=0)
    with pytest.raises(CoherenceError):
        system._check_line_invariants(0x40)


def plant(system, cmp_id, core, address, state):
    """Put a line straight into a cache set, bypassing the registry
    (which would refuse a second supplier before the checker sees it)."""
    cache = system.nodes[cmp_id].caches[core]
    cache._sets[address % cache.config.num_sets][address] = CacheLine(
        address, state, 0
    )


def test_invariant_checker_reports_two_global_suppliers():
    system = empty_system(check_invariants=True)
    plant(system, 0, 0, 0x40, LineState.E)
    plant(system, 1, 0, 0x40, LineState.SG)
    with pytest.raises(
        CoherenceError,
        match=r"^line 0x40 has 2 global suppliers: \[\(0, 0\), \(1, 0\)\]$",
    ):
        system._check_line_invariants(0x40)


def test_invariant_checker_reports_two_local_masters():
    system = empty_system(check_invariants=True)
    plant(system, 2, 0, 0x40, LineState.SL)
    plant(system, 2, 1, 0x40, LineState.SL)
    with pytest.raises(
        CoherenceError,
        match=(
            r"^line 0x40 has 2 local masters in CMP 2: "
            r"\[\(2, 0\), \(2, 1\)\]$"
        ),
    ):
        system._check_line_invariants(0x40)


def test_invariant_checker_reports_incompatible_states():
    system = empty_system(check_invariants=True)
    plant(system, 0, 1, 0x40, LineState.D)
    plant(system, 3, 0, 0x40, LineState.S)
    with pytest.raises(
        CoherenceError,
        match=r"^line 0x40: incompatible states D@\(0, 1\) and S@\(3, 0\)$",
    ):
        system._check_line_invariants(0x40)


@pytest.mark.parametrize(
    "core,algorithm,overrides",
    [
        ("object", "exact", {"check_invariants": True}),
        ("object", "superset_con", {"filter_write_snoops": True}),
        (
            "object",
            "lazy",
            {"tracing": TraceConfig(enabled=True, sample_window=200)},
        ),
        ("soa", "exact", {}),
        # Runs stopped by max_events (a run argument, popped before the
        # machine is built), which end in RuntimeError.
        ("object", "exact", {"max_events": 2000}),
        ("soa", "exact", {"max_events": 2000}),
    ],
)
def test_run_machine_is_freed_by_reference_counting(core, algorithm, overrides):
    """A run machine holds no reference cycle, whether its run finished
    or stopped early: with the cyclic collector off, dropping the last
    reference frees it and its predictors, and what a caller reads
    after a finished run stays readable until then."""
    overrides = dict(overrides)
    max_events = overrides.pop("max_events", None)
    workload = build_workload("splash2", 60, num_cmps=4)
    machine = default_machine(
        algorithm=algorithm,
        num_cmps=workload.num_cmps,
        cores_per_cmp=workload.cores_per_cmp,
        predictor="Exa512" if algorithm == "exact" else None,
        **overrides,
    )
    gc.collect()
    gc.disable()
    try:
        system = REGISTRY.create(
            "core",
            core,
            machine,
            build_algorithm(algorithm),
            workload,
            warmup_fraction=0.2,
        )
        if max_events is not None:
            with pytest.raises(RuntimeError, match="unfinished cores"):
                system.run(max_events=max_events)
        else:
            result = system.run()
            if core == "object":
                assert system.stats is result.stats
                assert system.nodes[0].caches[0].fills > 0
                if algorithm == "exact":
                    assert system.datapath._downgraded
                if system.timeline is not None:
                    assert system.timeline.samples
        if core == "object":
            predictor = system.nodes[0].predictor
        else:
            predictor = system._predictors[0]
        refs = [weakref.ref(system), weakref.ref(predictor)]
        del system, predictor
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
