"""Unit tests for trace containers and the synthetic generator."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.workloads.profiles import (
    WORKLOAD_PROFILES,
    build_workload,
    specjbb_profile,
    splash2_profile,
    specweb_profile,
)
from repro.workloads.synthetic import (
    SharingProfile,
    generate_workload,
    scramble,
    scramble_array,
)
from repro.workloads.trace import (
    Access,
    WorkloadTrace,
    accesses_from_columns,
)


# ----------------------------------------------------------------------
# Trace containers


def test_access_validation():
    with pytest.raises(ValueError):
        Access(address=-1, is_write=False, think_time=0)
    with pytest.raises(ValueError):
        Access(address=0, is_write=False, think_time=-5)
    with pytest.raises(ValueError):
        Access(-1, False, 0)
    with pytest.raises(ValueError):
        Access(0, True, -1)


def test_bulk_built_access_equals_and_pickles_like_a_constructed_one():
    built = accesses_from_columns([5, 7], [False, True], [3, 0])
    constructed = [
        Access(5, False, 3),
        Access(address=7, is_write=True, think_time=0),
    ]
    assert built == constructed
    for access, twin in zip(built, constructed):
        assert type(access) is Access
        assert repr(access) == repr(twin)
        assert hash(access) == hash(twin)
        assert access[:] == (twin.address, twin.is_write, twin.think_time)
        restored = pickle.loads(pickle.dumps(access))
        assert type(restored) is Access
        assert restored == twin
        assert pickle.dumps(access) == pickle.dumps(twin)


def test_bulk_build_checks_its_columns():
    assert accesses_from_columns([], [], []) == []
    with pytest.raises(ValueError):
        accesses_from_columns([1, -1], [False, False], [0, 0])
    with pytest.raises(ValueError):
        accesses_from_columns([1, 2], [False, False], [0, -3])
    with pytest.raises(ValueError):
        accesses_from_columns([1, 2], [False], [0, 0])


def test_workload_shape_properties():
    workload = WorkloadTrace(
        name="t",
        cores_per_cmp=2,
        traces=[
            [Access(1, False, 0), Access(2, True, 3)],
            [Access(1, False, 1)],
            [],
            [Access(9, False, 2)],
        ],
    )
    assert workload.num_cores == 4
    assert workload.num_cmps == 2
    assert workload.total_accesses == 4
    assert workload.cmp_of_core(0) == 0
    assert workload.cmp_of_core(3) == 1
    assert workload.address_footprint() == 3
    stats = workload.stats()
    assert stats["write_fraction"] == pytest.approx(0.25)


def test_workload_validation():
    workload = WorkloadTrace(name="bad", cores_per_cmp=2, traces=[[]])
    with pytest.raises(ValueError):
        workload.validate()
    with pytest.raises(ValueError):
        WorkloadTrace(name="empty", cores_per_cmp=1).validate()


# ----------------------------------------------------------------------
# Scrambler


def test_scramble_is_deterministic():
    assert scramble(12345) == scramble(12345)


def test_scramble_no_collisions_over_pools():
    seen = set()
    for logical in range(20000):
        physical = scramble(logical)
        assert physical not in seen
        seen.add(physical)


def test_scramble_spreads_low_bits():
    # Consecutive logical lines must not share obvious low-bit
    # structure (this is what defeats systematic Bloom aliasing).
    low_bits = {scramble(i) & 0x3FF for i in range(1024)}
    assert len(low_bits) > 600


def test_scramble_array_matches_scalar():
    edges = [0, 2**36 - 1, 2**63, 2**64 - 1]
    sample = np.random.default_rng(5).integers(
        0, 2**64 - 1, size=2000, dtype=np.uint64, endpoint=True
    )
    logical = edges + sample.tolist()
    physical = scramble_array(np.array(logical, dtype=np.uint64)).tolist()
    assert physical == [scramble(value) for value in logical]
    assert all(type(value) is int for value in physical)


# ----------------------------------------------------------------------
# Synthetic generator


def small_profile(**kwargs):
    defaults = dict(
        name="small",
        num_cores=4,
        cores_per_cmp=2,
        accesses_per_core=300,
        p_shared=0.5,
        p_cold=0.1,
        shared_lines=64,
        private_lines=64,
        seed=11,
    )
    defaults.update(kwargs)
    return SharingProfile(**defaults)


def test_generator_is_deterministic():
    a = generate_workload(small_profile())
    b = generate_workload(small_profile())
    assert a.traces == b.traces


def test_generator_seed_changes_trace():
    a = generate_workload(small_profile(seed=1))
    b = generate_workload(small_profile(seed=2))
    assert a.traces != b.traces


def test_generator_core_count_and_length():
    workload = generate_workload(small_profile())
    assert workload.num_cores == 4
    for trace in workload.traces:
        # Migratory pairs may add accesses beyond the nominal count.
        assert len(trace) >= 300


def test_private_pools_are_disjoint_across_cores():
    profile = small_profile(p_shared=0.0, p_cold=0.0)
    workload = generate_workload(profile)
    footprints = [
        {access.address for access in trace} for trace in workload.traces
    ]
    for i in range(len(footprints)):
        for j in range(i + 1, len(footprints)):
            assert not footprints[i] & footprints[j]


def test_shared_pool_is_shared_across_cores():
    profile = small_profile(p_shared=1.0, p_cold=0.0)
    workload = generate_workload(profile)
    footprints = [
        {access.address for access in trace} for trace in workload.traces
    ]
    common = footprints[0]
    for other in footprints[1:]:
        common = common & other
    assert common  # hot shared lines appear in every core's trace


def test_cold_pool_never_reused():
    profile = small_profile(p_shared=0.0, p_cold=1.0)
    workload = generate_workload(profile)
    for trace in workload.traces:
        addresses = [access.address for access in trace]
        assert len(addresses) == len(set(addresses))


def test_migratory_lines_generate_rmw_pairs():
    profile = small_profile(
        migratory_fraction=1.0, p_shared=1.0, p_cold=0.0
    )
    workload = generate_workload(profile)
    trace = workload.traces[0]
    # Every read of a migratory line is followed by a write to it.
    reads = [
        i for i, access in enumerate(trace[:-1]) if not access.is_write
    ]
    for i in reads:
        assert trace[i + 1].is_write
        assert trace[i + 1].address == trace[i].address


def test_profile_validation():
    with pytest.raises(ValueError):
        SharingProfile(num_cores=5, cores_per_cmp=2)
    with pytest.raises(ValueError):
        SharingProfile(p_shared=0.8, p_cold=0.4)
    with pytest.raises(ValueError):
        SharingProfile(migratory_fraction=1.5)


def test_profile_scaled():
    profile = small_profile().scaled(42)
    assert profile.accesses_per_core == 42
    assert profile.name == "small"


# ----------------------------------------------------------------------
# Named profiles


def test_named_profiles_exist():
    assert set(WORKLOAD_PROFILES) == {"splash2", "specjbb", "specweb"}


def test_splash2_shape():
    profile = splash2_profile()
    assert profile.num_cores == 32
    assert profile.cores_per_cmp == 4


def test_spec_profiles_shape():
    for factory in (specjbb_profile, specweb_profile):
        profile = factory()
        assert profile.num_cores == 8
        assert profile.cores_per_cmp == 1


def test_specjbb_shares_least():
    assert specjbb_profile().p_shared < specweb_profile().p_shared
    assert specjbb_profile().p_shared < splash2_profile().p_shared


def test_build_workload_aliases():
    a = build_workload("SPLASH-2", accesses_per_core=50)
    assert a.name == "SPLASH-2"
    b = build_workload("jbb", accesses_per_core=50)
    assert b.name == "SPECjbb"
    with pytest.raises(ValueError):
        build_workload("nosuch")
