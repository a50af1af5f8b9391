"""Parameterised synthetic workload generator.

The generator produces per-core access streams from a
:class:`SharingProfile` describing how the workload uses memory:

* a **private** pool per core (stack/heap data nobody else touches),
* a **shared** pool accessed by all cores, with a Zipf-like popularity
  skew and an optional *migratory* subset that cores access with
  read-modify-write pairs (the classic lock-protected data pattern),
* a **cold** pool of streaming lines that are touched once and never
  reused - these always miss to memory and model the workload's
  DRAM-bound fraction.

The knobs let the profiles in :mod:`repro.workloads.profiles` match
the coherence behaviour the paper reports for each workload class:
how often a ring read finds a supplier, how far away the supplier is,
and what fraction of requests fall through to memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.workloads.trace import (
    Access,
    WorkloadTrace,
    accesses_from_columns,
)

#: Address-space bases keeping the pools disjoint (logical layout;
#: physical line addresses are scrambled, see :func:`scramble`).
_SHARED_BASE = 0
_PRIVATE_BASE = 1 << 30
_COLD_BASE = 1 << 32
#: Span reserved for each core's private pool.
_PRIVATE_SPAN = 1 << 24

#: Physical line-address width after scrambling.
_PHYSICAL_BITS = 36
_PHYSICAL_MASK = (1 << _PHYSICAL_BITS) - 1


def scramble(logical: int) -> int:
    """Map a logical line id to a pseudo-random physical line address.

    Real operating systems spread a process's pages over the physical
    address space; without this, the generator's contiguous pool
    layout would alias systematically in the Bloom-filter bit fields
    (every core's private pool sharing the same low bits), which no
    real machine exhibits.  The mix is splitmix64, deterministic, and
    collision-free for all practical pool sizes within 36 bits.
    """
    z = (logical + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & _PHYSICAL_MASK


def scramble_array(logical: np.ndarray) -> np.ndarray:
    """:func:`scramble` over a ``uint64`` array: numpy's ``uint64``
    arithmetic wraps modulo 2**64, as the scalar version's masks do."""
    z = logical.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))) & np.uint64(_PHYSICAL_MASK)


@dataclass(frozen=True)
class SharingProfile:
    """Knobs of the synthetic generator.

    Attributes:
        name: label carried into results tables.
        num_cores: total cores (must be a multiple of ``cores_per_cmp``).
        cores_per_cmp: CMP population (the paper uses 4 for SPLASH-2
            and 1 for the SPEC workloads).
        accesses_per_core: trace length per core.
        p_shared: probability an access targets the shared pool.
        p_cold: probability an access targets the cold streaming pool.
        shared_lines: size of the shared pool (lines).
        private_lines: size of each core's private pool (lines).
        write_fraction_shared: write probability within shared accesses.
        write_fraction_private: write probability within private
            accesses.
        migratory_fraction: fraction of the shared pool whose accesses
            are read-modify-write pairs.
        producer_consumer_fraction: fraction of the shared pool with a
            single-writer / many-readers discipline: one owner core
            writes the line, every other core only reads it.  The
            write-to-read gaps are long (the owner visits the line at
            random times), which is the pattern that exposes the Exact
            predictor's downgrades: the dirty line is downgraded and
            written back before the next reader arrives, turning a
            cache-to-cache transfer into a memory access.
        zipf_exponent: popularity skew of the shared pool (0 =
            uniform).
        private_zipf_exponent: popularity skew of each core's private
            pool; higher values concentrate reuse on a hot subset.
        burst_mean: mean number of back-to-back accesses a core makes
            to a shared line once it touches it (temporal locality).
            Only the first access of a burst can miss; the rest hit the
            core's own cache, which keeps the ring-transaction rate at
            realistic levels (a few percent of accesses, not tens).
        prewarm_fraction: fraction of each core's private pool
            (hottest lines first) pre-installed in its cache in E
            state before the run.  Models the resident working set of
            a long-running application, giving the CMPs realistic
            supplier-state footprints (which is what pressures the
            Supplier Predictors).
        think_mean: mean CPU think time between accesses (geometric).
        think_scale: injection-rate control: every generated think
            time is multiplied by this factor (floored at 1 cycle).
            Cores are closed-loop - they block on outstanding misses -
            so shrinking think times is how the loaded-regime harness
            raises the offered ring-transaction rate per core without
            touching the access pattern: the drawn addresses and
            read/write mix are identical at every scale, only the
            pacing changes.  1.0 (the default) reproduces the base
            trace bit-identically.
        seed: RNG seed; traces are fully deterministic given the seed.
    """

    name: str = "synthetic"
    num_cores: int = 8
    cores_per_cmp: int = 1
    accesses_per_core: int = 4000
    p_shared: float = 0.3
    p_cold: float = 0.1
    shared_lines: int = 2048
    private_lines: int = 2048
    write_fraction_shared: float = 0.25
    write_fraction_private: float = 0.3
    migratory_fraction: float = 0.0
    producer_consumer_fraction: float = 0.0
    zipf_exponent: float = 0.6
    private_zipf_exponent: float = 0.4
    burst_mean: float = 1.0
    prewarm_fraction: float = 0.0
    think_mean: float = 12.0
    think_scale: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.think_scale <= 0.0:
            raise ValueError(
                "think_scale must be positive, got %r" % (self.think_scale,)
            )
        if self.num_cores % self.cores_per_cmp != 0:
            raise ValueError(
                "num_cores (%d) must be a multiple of cores_per_cmp (%d)"
                % (self.num_cores, self.cores_per_cmp)
            )
        if not 0.0 <= self.p_shared + self.p_cold <= 1.0:
            raise ValueError("p_shared + p_cold must be within [0, 1]")
        if self.private_lines >= _PRIVATE_SPAN:
            raise ValueError("private pool too large for its address span")
        for prob_name in (
            "p_shared",
            "p_cold",
            "write_fraction_shared",
            "write_fraction_private",
            "migratory_fraction",
            "producer_consumer_fraction",
            "prewarm_fraction",
        ):
            value = getattr(self, prob_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s must be in [0, 1]" % prob_name)

    def scaled(self, accesses_per_core: int) -> "SharingProfile":
        """Copy of this profile with a different trace length."""
        import dataclasses

        return dataclasses.replace(
            self, accesses_per_core=accesses_per_core
        )

    def with_think_scale(self, think_scale: float) -> "SharingProfile":
        """Copy of this profile at a different injection pacing."""
        import dataclasses

        return dataclasses.replace(self, think_scale=think_scale)


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalized Zipf weights over ranks 1..n."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent) if exponent > 0 else np.ones(n)
    return weights / weights.sum()


def generate_workload(profile: SharingProfile) -> WorkloadTrace:
    """Generate a deterministic multi-core trace from a profile."""
    rng = np.random.default_rng(profile.seed)
    shared_weights = _zipf_weights(profile.shared_lines, profile.zipf_exponent)
    # Spread the migratory subset across the popularity distribution
    # (selecting the top-ranked lines would make every hot line a
    # lock-like RMW target and serialize the whole machine on a few
    # addresses, which real workloads do not do).
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

    workload = WorkloadTrace(
        name=profile.name, cores_per_cmp=profile.cores_per_cmp
    )
    for core in range(profile.num_cores):
        workload.traces.append(
            _generate_core_trace(
                profile, core, rng, shared_weights, migratory_stride,
                pc_stride,
            )
        )
    if profile.prewarm_fraction > 0:
        count = int(profile.private_lines * profile.prewarm_fraction)
        for core in range(profile.num_cores):
            base = _PRIVATE_BASE + core * _PRIVATE_SPAN
            # Hottest (lowest zipf rank) lines first; the simulator
            # fills them in reverse so they end up most recently used.
            workload.prewarm.append(
                scramble_array(
                    np.arange(base, base + count, dtype=np.uint64)
                ).tolist()
            )
    workload.validate()
    return workload


def _generate_core_trace(
    profile: SharingProfile,
    core: int,
    rng: np.random.Generator,
    shared_weights: np.ndarray,
    migratory_stride: int,
    pc_stride: int,
) -> List[Access]:
    """One core's trace, drawn and assembled in whole-array passes.

    Each draw yields one *slot*; a slot emits one access, or more: a
    migratory line's read-modify-write pair, or a shared line's burst
    of re-reads.  A slot's first access carries its address, its write
    flag and its think time; the rest of the slot repeats the address
    with the slot's *follow-up* flag and think time.
    """
    n = profile.accesses_per_core
    pool_draw = rng.random(n)
    # Pools: shared, cold, and private for the rest.
    shared_mask = pool_draw < profile.p_shared
    cold_mask = (~shared_mask) & (
        pool_draw < profile.p_shared + profile.p_cold
    )

    shared_choices = rng.choice(
        profile.shared_lines, size=n, p=shared_weights
    )
    # Private reuse: Zipf-like skew over the private pool gives each
    # core a hot subset (cache resident) and a long tail (capacity
    # misses when the pool exceeds the cache).
    private_weights = _zipf_weights(
        profile.private_lines, profile.private_zipf_exponent
    )
    private_choices = rng.choice(
        profile.private_lines, size=n, p=private_weights
    )
    write_draw = rng.random(n)
    thinks = rng.geometric(1.0 / max(profile.think_mean, 1.0), size=n)
    bursts = (
        rng.geometric(1.0 / profile.burst_mean, size=n)
        if profile.burst_mean > 1.0
        else None
    )

    if profile.think_scale != 1.0:
        # Applied after the draw so every scale shares the same RNG
        # stream: identical addresses, different pacing.  np.rint
        # rounds half to even, as round() does.
        thinks = np.maximum(
            np.rint(thinks * profile.think_scale).astype(np.int64), 1
        )

    # Cold lines stream: the k-th cold slot touches line k.
    cold_counter = np.cumsum(cold_mask) - 1
    logical = np.where(
        shared_mask,
        _SHARED_BASE + shared_choices,
        np.where(
            cold_mask,
            _COLD_BASE + core * _PRIVATE_SPAN + cold_counter,
            _PRIVATE_BASE + core * _PRIVATE_SPAN + private_choices,
        ),
    )
    is_write = np.where(
        shared_mask,
        write_draw < profile.write_fraction_shared,
        ~cold_mask & (write_draw < profile.write_fraction_private),
    )
    # Follow-up accesses: a burst re-reads at half the think time.
    follow_write = np.zeros(n, dtype=bool)
    follow_think = np.maximum(thinks // 2, 1)
    slot_len = np.ones(n, dtype=np.int64)
    plain_shared = shared_mask
    # A line index is below shared_lines, so a stride whose matching
    # residue lies beyond the pool selects no line (and may not fit
    # the array's int64).
    if migratory_stride and migratory_stride <= profile.shared_lines:
        # Migratory data: a read, then the write of the pair.
        migratory = shared_mask & (
            shared_choices % migratory_stride == migratory_stride - 1
        )
        is_write &= ~migratory
        follow_write |= migratory
        follow_think[migratory] = 2
        slot_len[migratory] = 2
        plain_shared = plain_shared & ~migratory
    if pc_stride and pc_stride // 2 < profile.shared_lines:
        # Producer-consumer line: a deterministic hash picks the
        # single writer; everyone else only reads.
        producer = plain_shared & (
            shared_choices % pc_stride == pc_stride // 2
        )
        owner = (shared_choices * 2654435761) % profile.num_cores
        is_write = np.where(producer, owner == core, is_write)
        plain_shared = plain_shared & ~producer
    if bursts is not None:
        # Temporal locality: re-use the line before moving on.
        slot_len = np.where(plain_shared, bursts, slot_len)

    addresses = np.repeat(scramble_array(logical), slot_len)
    access_write = np.repeat(follow_write, slot_len)
    access_think = np.repeat(follow_think, slot_len)
    first = np.cumsum(slot_len) - slot_len
    access_write[first] = is_write
    access_think[first] = thinks
    return accesses_from_columns(
        addresses.tolist(), access_write.tolist(), access_think.tolist()
    )
