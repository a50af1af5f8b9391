"""Generated sharing profiles: the whole-array synthetic generator
draws exactly the trace the per-access loop it replaced drew.

The reference below is that loop, kept here as the oracle: the same
RNG calls in the same order, then one Python iteration per draw that
scrambles the address and appends plain ``(address, is_write,
think_time)`` tuples.  Profiles vary the core count, the pool
probabilities (0 and 1 included), bursts (a mean of 1 draws none),
the migratory and producer-consumer fractions (0 included), and
think-time scales whose products land on .5 (both round half to
even).  Every access must equal the reference's tuple and carry the
same Python types.

Tier-1 runs a fast profile; set ``FLEXSNOOP_PROPERTY_EXAMPLES`` (e.g.
to 200) for a long run.
"""

from __future__ import annotations

import os
from typing import List, Tuple

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.workloads.synthetic import (
    _COLD_BASE,
    _PRIVATE_BASE,
    _PRIVATE_SPAN,
    _SHARED_BASE,
    SharingProfile,
    _zipf_weights,
    generate_workload,
    scramble,
)
from repro.workloads.trace import Access

EXAMPLES = int(os.environ.get("FLEXSNOOP_PROPERTY_EXAMPLES", "60"))

Row = Tuple[int, bool, int]


def reference_core_trace(
    profile: SharingProfile,
    core: int,
    rng: np.random.Generator,
    shared_weights: np.ndarray,
    migratory_stride: int,
    pc_stride: int,
) -> List[Row]:
    n = profile.accesses_per_core
    pool_draw = rng.random(n)
    shared_mask = pool_draw < profile.p_shared
    cold_mask = (~shared_mask) & (
        pool_draw < profile.p_shared + profile.p_cold
    )
    shared_choices = rng.choice(
        profile.shared_lines, size=n, p=shared_weights
    )
    private_weights = _zipf_weights(
        profile.private_lines, profile.private_zipf_exponent
    )
    private_choices = rng.choice(
        profile.private_lines, size=n, p=private_weights
    )
    write_draw = rng.random(n)
    thinks = rng.geometric(1.0 / max(profile.think_mean, 1.0), size=n)
    private_base = _PRIVATE_BASE + core * _PRIVATE_SPAN
    cold_base = _COLD_BASE + core * _PRIVATE_SPAN
    cold_counter = 0
    bursts = (
        rng.geometric(1.0 / profile.burst_mean, size=n)
        if profile.burst_mean > 1.0
        else None
    )
    scale = profile.think_scale
    trace: List[Row] = []
    for i in range(n):
        think = int(thinks[i])
        if scale != 1.0:
            think = max(1, int(round(think * scale)))
        if shared_mask[i]:
            address = scramble(_SHARED_BASE + int(shared_choices[i]))
            if migratory_stride and (
                int(shared_choices[i]) % migratory_stride
                == migratory_stride - 1
            ):
                trace.append((address, False, think))
                trace.append((address, True, 2))
                continue
            shared_index = int(shared_choices[i])
            if pc_stride and shared_index % pc_stride == (pc_stride // 2):
                owner = (shared_index * 2654435761) % profile.num_cores
                trace.append((address, bool(core == owner), think))
                continue
            is_write = write_draw[i] < profile.write_fraction_shared
            if bursts is not None:
                trace.append((address, bool(is_write), think))
                for _ in range(int(bursts[i]) - 1):
                    trace.append((address, False, max(think // 2, 1)))
                continue
        elif cold_mask[i]:
            address = scramble(cold_base + cold_counter)
            cold_counter += 1
            is_write = False
        else:
            address = scramble(private_base + int(private_choices[i]))
            is_write = write_draw[i] < profile.write_fraction_private
        trace.append((address, bool(is_write), think))
    return trace


def reference_traces(profile: SharingProfile) -> List[List[Row]]:
    rng = np.random.default_rng(profile.seed)
    shared_weights = _zipf_weights(profile.shared_lines, profile.zipf_exponent)
    migratory_stride = (
        max(1, round(1.0 / profile.migratory_fraction))
        if profile.migratory_fraction > 0
        else 0
    )
    pc_stride = (
        max(1, round(1.0 / profile.producer_consumer_fraction))
        if profile.producer_consumer_fraction > 0
        else 0
    )
    return [
        reference_core_trace(
            profile, core, rng, shared_weights, migratory_stride, pc_stride
        )
        for core in range(profile.num_cores)
    ]


probabilities = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)
)
#: Fractions set a stride of round(1 / fraction); a subnormal one
#: makes that infinite, which neither generator accepts.
fractions = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 1.0]),
    st.floats(0.0, 1.0, allow_subnormal=False),
)
#: Scales that put ``think * scale`` on a .5 for some think, and others.
think_scales = st.one_of(
    st.sampled_from([1.0, 0.5, 1.5, 2.5, 0.25, 0.3, 10.0]),
    st.floats(0.05, 12.0),
)


@st.composite
def profiles(draw) -> SharingProfile:
    cores_per_cmp = draw(st.sampled_from([1, 2, 4]))
    p_shared = draw(probabilities)
    p_cold = draw(probabilities) * (1.0 - p_shared)
    assume(p_shared + p_cold <= 1.0)
    return SharingProfile(
        name="drawn",
        num_cores=cores_per_cmp * draw(st.integers(1, 4)),
        cores_per_cmp=cores_per_cmp,
        accesses_per_core=draw(st.integers(0, 120)),
        p_shared=p_shared,
        p_cold=p_cold,
        shared_lines=draw(st.integers(1, 64)),
        private_lines=draw(st.integers(1, 64)),
        write_fraction_shared=draw(probabilities),
        write_fraction_private=draw(probabilities),
        migratory_fraction=draw(fractions),
        producer_consumer_fraction=draw(fractions),
        zipf_exponent=draw(st.sampled_from([0.0, 0.6, 1.2])),
        private_zipf_exponent=draw(st.sampled_from([0.0, 0.4])),
        burst_mean=draw(
            st.one_of(st.just(1.0), st.floats(1.0, 6.0))
        ),
        prewarm_fraction=draw(st.sampled_from([0.0, 0.5])),
        think_mean=draw(st.sampled_from([1.0, 3.0, 12.0])),
        think_scale=draw(think_scales),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@given(profiles())
@example(
    SharingProfile(
        name="every-branch",
        num_cores=4,
        cores_per_cmp=2,
        accesses_per_core=200,
        p_shared=0.6,
        p_cold=0.2,
        shared_lines=30,
        migratory_fraction=0.25,
        producer_consumer_fraction=0.2,
        burst_mean=3.0,
        think_scale=0.5,
        seed=3,
    )
)
@settings(max_examples=EXAMPLES, deadline=None)
def test_generator_matches_the_per_access_loop(profile):
    workload = generate_workload(profile)
    assert workload.traces == reference_traces(profile)
    for trace in workload.traces:
        for access in trace:
            assert type(access) is Access
            assert type(access.address) is int
            assert type(access.is_write) is bool
            assert type(access.think_time) is int
