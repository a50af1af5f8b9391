"""Integration tests for the measurement-window machinery: statistics
warmup and cache prewarm."""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.config import (
    NAMED_PREDICTORS,
    CacheConfig,
    PredictorConfig,
    default_machine,
)
from repro.coherence.states import LineState
from repro.core.algorithms import build_algorithm
from repro.registry import REGISTRY
from repro.sim import prewarm as prewarm_module
from repro.sim.soa import _STATE, _VSHIFT, _build_set
from repro.sim.system import RingMultiprocessor
from repro.workloads.source import SyntheticSource, as_source
from repro.workloads.synthetic import SharingProfile, generate_workload


def profile(prewarm_fraction=0.0, seed=23):
    return SharingProfile(
        name="warm",
        num_cores=4,
        cores_per_cmp=1,
        accesses_per_core=400,
        p_shared=0.3,
        p_cold=0.1,
        shared_lines=64,
        private_lines=128,
        prewarm_fraction=prewarm_fraction,
        seed=seed,
    )


def build(prewarm_fraction=0.0, warmup_fraction=0.0):
    workload = generate_workload(profile(prewarm_fraction))
    machine = default_machine(
        algorithm="lazy",
        num_cmps=4,
        cores_per_cmp=1,
        cache=CacheConfig(num_lines=256, associativity=8),
        track_versions=True,
    )
    return RingMultiprocessor(
        machine,
        build_algorithm("lazy"),
        workload,
        warmup_fraction=warmup_fraction,
    )


# ----------------------------------------------------------------------
# Warmup (statistics reset)


def test_warmup_reduces_counted_accesses():
    full = build(warmup_fraction=0.0).run()
    measured = build(warmup_fraction=0.5).run()
    assert measured.stats.reads < full.stats.reads
    assert measured.stats.reads > 0


def test_warmup_shrinks_exec_time_window():
    full = build(warmup_fraction=0.0).run()
    measured = build(warmup_fraction=0.5).run()
    assert measured.exec_time < full.exec_time


def test_warmup_lowers_compulsory_miss_share():
    """After warmup the caches are trained, so the memory-supplied
    share of ring reads drops."""
    cold = build(warmup_fraction=0.0).run()
    warm = build(warmup_fraction=0.6).run()
    assert (
        warm.stats.supplier_found_fraction
        >= cold.stats.supplier_found_fraction
    )


def test_invalid_warmup_fraction_rejected():
    workload = generate_workload(profile())
    machine = default_machine(algorithm="lazy", num_cmps=4,
                              cores_per_cmp=1)
    with pytest.raises(ValueError):
        RingMultiprocessor(
            machine, build_algorithm("lazy"), workload,
            warmup_fraction=1.0,
        )


# ----------------------------------------------------------------------
# Prewarm (initial cache contents)


def test_prewarm_installs_exclusive_lines():
    system = build(prewarm_fraction=1.0)
    prewarm = system.source.prewarm()
    assert prewarm
    for core, lines in zip(system.cores, prewarm):
        cache = system.nodes[core.cmp_id].caches[core.local_id]
        resident = [a for a in lines if a in cache]
        # Set conflicts may evict a few prewarmed lines; the bulk must
        # be resident, and everything resident must be Exclusive.
        assert len(resident) > 0.85 * len(lines)
        for address in resident:
            assert cache.state_of(address) is LineState.E


def test_prewarm_trains_predictors():
    workload = generate_workload(profile(prewarm_fraction=1.0))
    machine = default_machine(
        algorithm="subset",
        num_cmps=4,
        cores_per_cmp=1,
        cache=CacheConfig(num_lines=256, associativity=8),
    )
    system = RingMultiprocessor(
        machine, build_algorithm("subset"), workload
    )
    predictor = system.nodes[0].predictor
    hits = sum(
        1 for address in workload.prewarm[0] if address in predictor
    )
    assert hits > 0


def test_prewarm_eliminates_private_cold_misses():
    cold = build(prewarm_fraction=0.0).run()
    warm = build(prewarm_fraction=1.0).run()
    # Private lines now hit; ring reads shrink to shared + cold pools.
    assert warm.stats.read_ring_transactions < (
        cold.stats.read_ring_transactions
    )


def test_prewarm_hot_lines_survive_capacity():
    """The prewarm list is installed hottest-last (MRU), so when the
    pool exceeds the cache, the hot head survives."""
    workload = generate_workload(
        SharingProfile(
            name="overflow",
            num_cores=4,
            cores_per_cmp=1,
            accesses_per_core=10,
            p_shared=0.0,
            p_cold=0.0,
            private_lines=512,  # 2x the 256-line cache
            prewarm_fraction=1.0,
            seed=3,
        )
    )
    machine = default_machine(
        algorithm="lazy",
        num_cmps=4,
        cores_per_cmp=1,
        cache=CacheConfig(num_lines=256, associativity=8),
    )
    system = RingMultiprocessor(machine, build_algorithm("lazy"),
                                workload)
    cache = system.nodes[0].caches[0]
    hot = workload.prewarm[0][:32]
    resident = sum(1 for address in hot if address in cache)
    assert resident > 24  # the hot head is (almost) fully resident


def test_prewarm_mismatched_length_rejected():
    workload = generate_workload(profile(prewarm_fraction=0.5))
    workload.prewarm.pop()
    with pytest.raises(ValueError):
        workload.validate()


# ----------------------------------------------------------------------
# Prewarm walk and image store (repro.sim.prewarm)


def overflow_profile(seed=11, cores_per_cmp=1, think_scale=1.0):
    """Private pool at 2x cache capacity, so prewarm exercises the
    conflict-eviction branch as well as plain fills."""
    return SharingProfile(
        name="overflow",
        num_cores=4,
        cores_per_cmp=cores_per_cmp,
        accesses_per_core=100,
        p_shared=0.2,
        p_cold=0.05,
        shared_lines=32,
        private_lines=512,
        prewarm_fraction=1.0,
        seed=seed,
        think_scale=think_scale,
    )


def build_for(algorithm, workload, core="object", predictor=None, **overrides):
    """``algorithm`` on a small machine shaped to ``workload``, with its
    default predictor unless ``predictor`` (a ``PredictorConfig``)."""
    source = as_source(workload)
    machine = default_machine(
        algorithm=algorithm,
        num_cmps=source.num_cmps,
        cores_per_cmp=source.cores_per_cmp,
        cache=CacheConfig(num_lines=256, associativity=8),
        **overrides,
    )
    if predictor is not None:
        machine = machine.replace(predictor=predictor)
    return REGISTRY.create(
        "core", core, machine, build_algorithm(algorithm), workload
    )


#: Line states by the soa core's integer codes.
SOA_STATES = (
    LineState.S,
    LineState.SL,
    LineState.SG,
    LineState.E,
    LineState.D,
    LineState.T,
)


def cache_sets(system):
    """Per core, per set: ``(address, state, version)`` in LRU order.
    Both cores' sets are materialized from their pending content."""
    if isinstance(system, RingMultiprocessor):
        num_sets = system.config.cache.num_sets
        caches = []
        for core in system.cores:
            sets = [[] for _ in range(num_sets)]
            cache = system.nodes[core.cmp_id].caches[core.local_id]
            for line in cache.iter_lines():
                sets[line.address % num_sets].append(
                    (line.address, line.state, line.version)
                )
            caches.append(sets)
        return caches
    return [
        [
            [
                (address, SOA_STATES[line & _STATE], line >> _VSHIFT)
                for address, line in (
                    cache_set
                    if cache_set is not None
                    else _build_set(pending.get(index))
                ).items()
            ]
            for index, cache_set in enumerate(sets)
        ]
        for sets, pending in zip(system._core_sets, system._pending_sets)
    ]


def machine_state(system):
    """Everything prewarm touches, in comparable form: cache contents
    in LRU order, the line registry, per-CMP predictor state and the
    downgrade charges, plus (object core only) the fill/eviction
    counters and the presence filters."""
    if isinstance(system, RingMultiprocessor):
        predictors = [node.predictor for node in system.nodes]
        downgrades = (
            system.stats.downgrades,
            system.energy.breakdown.downgrade_ops,
            system.datapath._downgraded,
        )
        extra = (
            [
                (cache.fills, cache.evictions, cache.dirty_evictions)
                for node in system.nodes
                for cache in node.caches
            ],
            [
                (p.filter.snapshot(), p.lookups, p.updates, p.filtered)
                for p in system.presence
            ],
        )
    else:
        predictors = system._predictors
        downgrades = (
            system._init_downgrades,
            system._init_e_downgrade_ops,
            system._downgraded,
        )
        extra = None
    return {
        "caches": cache_sets(system),
        "supplier_of": dict(system._supplier_of),
        "holder_count": dict(system._holder_count),
        "predictors": [p.prewarm_snapshot() for p in predictors],
        "downgrades": downgrades,
        "extra": extra,
    }


@pytest.fixture
def image_walks(monkeypatch):
    """Start from an empty image store and record every prewarm walk."""
    prewarm_module._IMAGES.clear()
    walks = []
    original = prewarm_module._walk

    def spy(*args):
        walks.append(args)
        return original(*args)

    monkeypatch.setattr(prewarm_module, "_walk", spy)
    yield walks
    prewarm_module._IMAGES.clear()


#: (algorithm, predictor, machine overrides) per oracle case.  The
#: 512-entry predictors conflict on two cores' resident lines, so
#: Subset drops entries and Exact downgrades lines; a 64-entry Exact
#: predictor downgrades lines a core refills later.
ORACLE_CASES = {
    "subset": ("subset", NAMED_PREDICTORS["Sub512"], {}),
    "exact": ("exact", NAMED_PREDICTORS["Exa512"], {}),
    "exact_refill": ("exact", PredictorConfig(kind="exact", entries=64), {}),
    "write_filter": (
        "subset",
        NAMED_PREDICTORS["Sub512"],
        {"filter_write_snoops": True},
    ),
}


@pytest.mark.parametrize(
    "case,core",
    [
        ("subset", "object"),
        ("subset", "soa"),
        ("exact", "object"),
        ("exact", "soa"),
        ("exact_refill", "object"),
        ("exact_refill", "soa"),
        ("write_filter", "object"),
    ],
)
def test_prewarm_fast_path_matches_generic_fill(case, core, image_walks):
    """Installing the prewarm image must be observably identical to
    filling every line through the object core's generic
    (callback-driven) ``cache.fill`` path, on both cores."""
    algorithm, predictor, overrides = ORACLE_CASES[case]
    workload = generate_workload(overflow_profile(cores_per_cmp=2))
    assert workload.prewarm
    if case == "exact_refill":
        # Every line listed twice: a line an Exact downgrade left in SL
        # regains E when it is filled again.
        workload = dataclasses.replace(
            workload, prewarm=[lines[:100] * 2 for lines in workload.prewarm]
        )
    fast = build_for(algorithm, workload, core, predictor, **overrides)
    assert len(image_walks) == 1

    bare = dataclasses.replace(workload, prewarm=[])
    generic = build_for(algorithm, bare, "object", predictor, **overrides)
    for core_, lines in zip(generic.cores, workload.prewarm):
        cache = generic.nodes[core_.cmp_id].caches[core_.local_id]
        for address in reversed(lines):
            cache.fill(address, LineState.E, 0)

    expected = machine_state(generic)
    counters = expected["extra"][0]
    if core == "soa":
        expected["extra"] = None
    assert machine_state(fast) == expected
    # The overflow pool must actually have exercised evictions (and
    # Exact its downgrades), or the comparison proves less than it
    # claims.
    assert any(evictions for _, evictions, _ in counters)
    if algorithm == "exact":
        assert expected["downgrades"][0] > 0
    if case == "exact_refill":
        assert any(
            cache.state_of(address) is LineState.E
            for address in generic.datapath._downgraded
            for node in generic.nodes
            for cache in node.caches
        )
    if case == "write_filter":
        assert all(p.updates > 0 for p in generic.presence)


@pytest.mark.parametrize("algorithm", ["oracle", "subset", "superset_con"])
def test_prewarm_memo_matches_full_walk(algorithm, image_walks):
    """Installing a stored image must leave the machine in exactly the
    state a full walk produces, and the run built on top of it must be
    bit-identical."""
    workload = generate_workload(overflow_profile())
    first = build_for(algorithm, workload)  # walks and stores the image
    assert len(image_walks) == 1
    assert len(prewarm_module._IMAGES) == 1

    memoized = build_for(algorithm, workload)  # must hit the store
    assert len(image_walks) == 1

    prewarm_module._IMAGES.clear()
    walked = build_for(algorithm, workload)  # the reference: a full walk
    assert len(image_walks) == 2

    assert machine_state(memoized) == machine_state(walked)
    assert machine_state(memoized) == machine_state(first)
    assert memoized.run().summary() == walked.run().summary()


def test_no_core_keeps_an_exact_image(image_walks):
    """Exact's conflict downgrades let predictor training feed back
    into cache state, so each construction derives its Exact image
    from the one stored walk, which also serves the other predictors,
    and neither core stores the derived image."""
    workload = generate_workload(overflow_profile())
    exact = PredictorConfig(kind="exact", entries=64)
    first = build_for("exact", workload, "object", exact)
    build_for("exact", workload, "soa", exact)
    second = build_for("exact", workload, "object", exact)
    build_for("subset", workload, "soa")
    assert len(image_walks) == 1
    (image,) = prewarm_module._IMAGES.values()
    assert list(image.snapshots) == [NAMED_PREDICTORS["Sub2k"]]
    assert not any(image.downgrades)
    assert all(
        codes is None
        for core_sets in image.sets
        for _, codes in core_sets.values()
    )
    assert first.stats.downgrades > 0
    assert machine_state(first) == machine_state(second)


def test_soa_sets_stay_untracked(image_walks):
    """soa's lines are packed ints, so no cache set is a container the
    cyclic collector tracks: after a run with writes and an Exact
    predictor, every materialized set - empty at first, or built from
    all-E or state-coded prewarm content - is untracked."""
    workload = generate_workload(
        dataclasses.replace(
            overflow_profile(cores_per_cmp=2), prewarm_fraction=0.05
        )
    )
    system = build_for(
        "exact", workload, "soa", PredictorConfig(kind="exact", entries=64)
    )
    pending = [dict(core_sets) for core_sets in system._pending_sets]
    stats = system.run().stats
    assert stats.writes > 0 and stats.downgrades > 0
    built = [
        (core, index, cache_set)
        for core, sets in enumerate(system._core_sets)
        for index, cache_set in enumerate(sets)
        if cache_set is not None
    ]
    origins = {
        "empty"
        if index not in pending[core]
        else "all_e"
        if pending[core][index][1] is None
        else "coded"
        for core, index, _ in built
    }
    assert origins == {"empty", "all_e", "coded"}
    assert not any(gc.is_tracked(cache_set) for _, _, cache_set in built)


def test_object_then_soa_build_walks_once(image_walks):
    """The store is shared by both cores: a soa machine built after an
    object machine on the same source installs the same image."""
    source = SyntheticSource(overflow_profile())
    obj = build_for("subset", source, "object")
    soa = build_for("subset", source, "soa")
    assert len(image_walks) == 1
    assert obj.run().summary() == soa.run().summary()


def test_prewarm_image_keyed_on_content(image_walks, monkeypatch):
    """Distinct sources with equal prewarm lines share one image, and
    a source's lines are hashed once however often it is built."""
    hashed = []
    original = prewarm_module._hash_lines

    def spy(lines):
        hashed.append(lines)
        return original(lines)

    monkeypatch.setattr(prewarm_module, "_hash_lines", spy)
    source = SyntheticSource(overflow_profile())
    first = build_for("subset", source)
    build_for("superset_con", source)
    assert len(image_walks) == 1
    assert len(hashed) == 1

    # A brand-new source object with an equal profile, and variants
    # with other descriptors but the same prewarm lines (another think
    # scale, another seed: the private pools do not depend on either):
    # all hit.
    second = build_for("subset", SyntheticSource(overflow_profile()))
    build_for("subset", SyntheticSource(overflow_profile(think_scale=0.5)))
    build_for("subset", SyntheticSource(overflow_profile(seed=12)))
    assert len(image_walks) == 1
    assert machine_state(first) == machine_state(second)

    # Other prewarm lines walk and store a second image.
    fewer = dataclasses.replace(overflow_profile(), prewarm_fraction=0.5)
    build_for("subset", SyntheticSource(fewer))
    assert len(image_walks) == 2
    assert len(prewarm_module._IMAGES) == 2


def test_prewarm_image_shared_across_file_and_memory(tmp_path, image_walks):
    """A file replay of a saved trace hits the in-memory trace's image:
    the key is the prewarm lines' content, not the source's
    descriptor."""
    from repro.workloads.io import save_trace
    from repro.workloads.source import FileReplaySource

    workload = generate_workload(overflow_profile())
    path = tmp_path / "overflow.jsonl"
    save_trace(workload, path)

    direct = build_for("subset", workload)
    first = build_for("subset", FileReplaySource(path))
    second = build_for("subset", FileReplaySource(path))
    assert len(image_walks) == 1
    assert machine_state(first) == machine_state(second)
    assert machine_state(first) == machine_state(direct)


@pytest.mark.parametrize("core", ["object", "soa"])
def test_think_scale_variants_share_one_image(
    core, image_walks, monkeypatch
):
    """The loaded study's shape (two algorithms x ring/hier_ring x three
    think scales) walks prewarm once per machine size: the think-scale
    variants of splash2 have equal prewarm lines.  Every run is on the
    requested core (a soa refusal would fall back to object)."""
    from repro.harness import parallel
    from repro.harness.saturation import run_saturation

    ran = []
    execute = parallel.execute_spec

    def recording(spec):
        result = execute(spec)
        ran.append(result.core)
        return result

    monkeypatch.setattr(parallel, "execute_spec", recording)
    curves = run_saturation(
        algorithms=("lazy", "criticality"),
        topologies=("ring", "hier_ring"),
        workload="splash2",
        think_scales=(10, 1, 0.3),
        accesses_per_core=20,
        jobs=1,
        cache=None,
        core=core,
    )
    assert sum(len(curve.points) for curve in curves) == 12
    assert len(image_walks) == 2
    assert ran and set(ran) == {core}
