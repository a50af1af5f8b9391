"""Configuration dataclasses for the flexible-snooping simulator.

The default values reproduce Table 4 of the paper (Strauss, Shen,
Torrellas, ISCA 2006): an 8-CMP machine whose CMPs are connected by a
2D torus carrying data messages, with two unidirectional rings
logically embedded in the torus carrying snoop messages.

All times are expressed in processor cycles at the paper's 6 GHz
reference frequency.  All energies are expressed in nanojoules.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class RingConfig:
    """Timing parameters of the embedded unidirectional snoop ring.

    Attributes:
        hop_latency: CMP-to-CMP latency of one ring segment (cycles).
        snoop_time: CMP bus access plus L2 snoop time, i.e. the time a
            snoop operation occupies at a node (cycles).  The paper
            breaks the 55 cycles into 38 cycles of on-chip transmission,
            10 cycles of arbitration and 7 cycles of L2 snooping.
        gateway_latency: fixed gateway processing overhead applied when
            a message is received and re-emitted without snooping
            (cycles).  Kept small; the paper folds it into hop latency.
        num_rings: number of embedded rings; snoop requests are mapped
            to rings by line address to balance load.
    """

    hop_latency: int = 39
    snoop_time: int = 55
    gateway_latency: int = 0
    num_rings: int = 2
    #: Cycles a ring link is occupied per message (0 = unlimited
    #: bandwidth, the paper's "unloaded" analysis).  With a non-zero
    #: value, messages crossing the same segment of the same ring
    #: serialize - which is precisely where Eager's doubled traffic
    #: starts to hurt.
    link_occupancy: int = 0
    #: Serialize snoop operations at each CMP (the shared on-chip bus
    #: admits one snoop at a time).  Off by default to match the
    #: paper's unloaded-latency tables.
    serialize_snoop_port: bool = False


@dataclass(frozen=True)
class DataNetworkConfig:
    """Timing of the regular (non-ring) data network, a 2D torus.

    Data replies and memory messages use the torus, not the ring.  The
    latency of a transfer is ``per_hop_latency * torus_hops + overhead``.
    """

    per_hop_latency: int = 20
    overhead: int = 40
    torus_shape: Tuple[int, int] = (4, 2)


#: The stock 8-CMP torus; :class:`MachineConfig` auto-grows this (and
#: only this) shape when a larger machine is requested.
_DEFAULT_TORUS_SHAPE: Tuple[int, int] = (4, 2)


def derive_torus_shape(num_cmps: int) -> Tuple[int, int]:
    """Smallest near-square ``(rows, cols)`` torus holding ``num_cmps``
    nodes, with ``rows >= cols`` like the stock (4, 2) shape."""
    cols = 1
    while cols * cols < num_cmps:
        cols += 1
    rows = (num_cmps + cols - 1) // cols
    if rows < cols:
        rows, cols = cols, rows
    return rows, cols


@dataclass(frozen=True)
class TopologyConfig:
    """Shape of the snoop interconnect (registry kind ``topology``).

    ``kind`` names a topology registered under the ``topology``
    registry kind (builtins: ``ring``, ``hier_ring``; plugins via the
    ``flexsnoop.topologies`` entry-point group).  The remaining fields
    parameterize the two-level ``hier_ring`` builtin: ``local_rings``
    local rings of ``num_cmps // local_rings`` CMPs each, joined by a
    global ring through one bridge node per local ring.  A hop latency
    of 0 means "inherit ``RingConfig.hop_latency``", so the default
    hier_ring machine is directly comparable to the flat ring.
    """

    kind: str = "ring"
    local_rings: int = 4
    local_hop_latency: int = 0
    global_hop_latency: int = 0

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("topology kind must be a non-empty name")
        if self.local_rings < 1:
            raise ValueError("local_rings must be >= 1")
        if self.local_hop_latency < 0 or self.global_hop_latency < 0:
            raise ValueError("topology hop latencies must be >= 0")


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory timing (Table 4 of the paper).

    Attributes:
        local_round_trip: round-trip to the local (same node) memory.
        remote_round_trip: round-trip to a remote node's memory when no
            prefetch was initiated.
        remote_round_trip_prefetched: round-trip to a remote memory when
            a prefetch was initiated as the snoop request passed the
            home node, hiding most of the DRAM latency.
        prefetch_on_snoop: whether passing the home node on the ring
            initiates a DRAM prefetch (the heuristic of Section 2.2).
    """

    local_round_trip: int = 350
    remote_round_trip: int = 710
    remote_round_trip_prefetched: int = 312
    prefetch_on_snoop: bool = True


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one private L2 cache.

    The simulator tracks lines, not bytes: ``num_lines`` is
    ``size / line_size`` (512 KB / 64 B = 8192 lines by default).
    """

    num_lines: int = 8192
    associativity: int = 8
    line_size: int = 64
    hit_latency: int = 11
    local_master_latency: int = 55

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    def __post_init__(self) -> None:
        if self.num_lines % self.associativity != 0:
            raise ValueError(
                "num_lines (%d) must be a multiple of associativity (%d)"
                % (self.num_lines, self.associativity)
            )


@dataclass(frozen=True)
class PredictorConfig:
    """Configuration of a Supplier Predictor (Section 4.3 / Table 4).

    ``kind`` selects the predictor family:

    * ``"none"``    - no predictor (Lazy / Eager).
    * ``"subset"``  - set-associative cache of supplier lines; false
      negatives possible, no false positives.
    * ``"superset"``- counting Bloom filter plus Exclude cache; false
      positives possible, no false negatives.
    * ``"exact"``   - subset cache that downgrades lines on conflict
      eviction; neither false positives nor false negatives.
    * ``"perfect"`` - oracle that inspects the caches directly.

    ``bloom_fields`` gives the bit widths of the address fields indexing
    the Bloom filter tables.  The paper's *y* filter uses (10, 4, 7) and
    its *n* filter uses (9, 9, 6).
    """

    kind: str = "none"
    entries: int = 2048
    associativity: int = 8
    bloom_fields: Tuple[int, ...] = (10, 4, 7)
    exclude_entries: int = 2048
    exclude_associativity: int = 8
    access_latency: int = 2

    VALID_KINDS = ("none", "subset", "superset", "exact", "perfect")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise ValueError(
                "unknown predictor kind %r; expected one of %s"
                % (self.kind, ", ".join(self.VALID_KINDS))
            )

    def with_entries(self, entries: int) -> "PredictorConfig":
        """Return a copy of this config with a different entry count."""
        return dataclasses.replace(self, entries=entries)


#: Named predictor configurations from Section 5.2 of the paper.
NAMED_PREDICTORS = {
    "Sub512": PredictorConfig(kind="subset", entries=512),
    "Sub2k": PredictorConfig(kind="subset", entries=2048),
    "Sub8k": PredictorConfig(kind="subset", entries=8192),
    "Supy512": PredictorConfig(
        kind="superset", bloom_fields=(10, 4, 7), exclude_entries=512
    ),
    "Supy2k": PredictorConfig(
        kind="superset", bloom_fields=(10, 4, 7), exclude_entries=2048
    ),
    "Supn2k": PredictorConfig(
        kind="superset", bloom_fields=(9, 9, 6), exclude_entries=2048
    ),
    "Exa512": PredictorConfig(kind="exact", entries=512),
    "Exa2k": PredictorConfig(kind="exact", entries=2048),
    "Exa8k": PredictorConfig(kind="exact", entries=8192),
    "Perfect": PredictorConfig(kind="perfect"),
    "None": PredictorConfig(kind="none"),
}


def _register_predictors() -> None:
    """Expose the named predictor configs through the component
    registry (the unified name-resolution path)."""
    from repro.registry import REGISTRY

    for name, config in NAMED_PREDICTORS.items():
        REGISTRY.register(
            "predictor",
            name,
            (lambda _config=config: _config),
            metadata={"kind": config.kind, "entries": config.entries},
        )


_register_predictors()


@dataclass(frozen=True)
class EnergyConfig:
    """Per-event energies in nanojoules (Section 6.1.4 of the paper).

    The paper's published calibration points are used directly:
    3.17 nJ to move one snoop message across one ring link, 0.69 nJ for
    one CMP snoop operation, and 24 nJ for one main-memory line access.
    The predictor energies are chosen to be consistent with the paper's
    qualitative findings: the Superset predictor (Bloom filter plus
    Exclude cache, trained on every supplier-state change and probed on
    every ring message) consumes enough energy that Superset Con ends up
    only slightly below Lazy overall.
    """

    ring_link_message: float = 3.17
    cmp_snoop: float = 0.69
    memory_line_access: float = 24.0
    subset_lookup: float = 0.08
    subset_update: float = 0.08
    superset_lookup: float = 0.12
    superset_update: float = 0.12
    exact_lookup: float = 0.08
    exact_update: float = 0.08
    downgrade_cache_access: float = 0.30


@dataclass(frozen=True)
class TraceConfig:
    """Observability knobs (see ``docs/observability.md``).

    Simulator-level, not machine semantics: tracing observes the run
    without changing any result (guarded by the golden audit tests).

    Attributes:
        enabled: emit lifecycle events into a trace sink.  Off by
            default; the hot paths then pay only an ``is not None``
            test per emission site.
        sink: sink name resolved through the component registry
            (kind ``"sink"``; builtins: ``memory``, ``jsonl``).
        sample_window: simulated cycles between metrics-timeline
            samples (0 disables the timeline).  The timeline does not
            require ``enabled``.
    """

    enabled: bool = False
    sink: str = "memory"
    sample_window: int = 0

    def __post_init__(self) -> None:
        if self.sample_window < 0:
            raise ValueError("sample_window must be >= 0")


@dataclass(frozen=True)
class ProcessorConfig:
    """Trace-replay timing model of one core.

    Cores replay a trace of L2-level accesses.  Between consecutive
    accesses the core computes for the access's ``think_time`` cycles.
    Read misses block the core until data arrives; writes block until
    the invalidation acknowledgement returns (conservative).
    """

    default_think_time: int = 12
    max_outstanding_writes: int = 1


@dataclass(frozen=True)
class MachineConfig:
    """Complete configuration of the simulated multiprocessor."""

    num_cmps: int = 8
    cores_per_cmp: int = 4
    ring: RingConfig = field(default_factory=RingConfig)
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    data_network: DataNetworkConfig = field(default_factory=DataNetworkConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    track_versions: bool = False
    check_invariants: bool = False
    squash_backoff: int = 200
    #: Extension (Section 5.3 leaves this open): filter write snoops
    #: with a per-CMP presence predictor - a counting Bloom filter
    #: over all resident lines.  A provably-absent line's invalidation
    #: snoop is skipped.
    filter_write_snoops: bool = False
    #: Structured observability (off by default, zero result impact).
    tracing: TraceConfig = field(default_factory=TraceConfig)

    @property
    def num_cores(self) -> int:
        return self.num_cmps * self.cores_per_cmp

    def __post_init__(self) -> None:
        if self.num_cmps < 2:
            raise ValueError("need at least 2 CMPs for a ring")
        if self.cores_per_cmp < 1:
            raise ValueError("need at least 1 core per CMP")
        rows, cols = self.data_network.torus_shape
        if rows * cols < self.num_cmps:
            if self.data_network.torus_shape == _DEFAULT_TORUS_SHAPE:
                # The default 4x2 torus only fits 8 CMPs.  Machines are
                # shaped to their workload source's CMP count, so a
                # >8-CMP replay would otherwise die here; grow the
                # default to a near-square shape that fits.  Explicit
                # non-default shapes still fail loudly below.
                object.__setattr__(
                    self,
                    "data_network",
                    dataclasses.replace(
                        self.data_network,
                        torus_shape=derive_torus_shape(self.num_cmps),
                    ),
                )
            else:
                raise ValueError(
                    "torus shape %s too small for %d CMPs"
                    % (self.data_network.torus_shape, self.num_cmps)
                )

    def replace(self, **kwargs) -> "MachineConfig":
        """Return a copy of this config with selected fields replaced."""
        return dataclasses.replace(self, **kwargs)


def default_machine(
    algorithm: Optional[str] = None,
    predictor: Optional[str] = None,
    **overrides,
) -> MachineConfig:
    """Build the paper's default machine, optionally picking a named
    predictor (Section 5.2) appropriate for an algorithm.

    Args:
        algorithm: optional algorithm name; if given and ``predictor``
            is omitted, the algorithm's default predictor from the
            paper's main comparison (Section 6.1) is used: ``Sub2k``
            for Subset, ``Supy2k`` for the Superset algorithms and
            ``Exa2k`` for Exact.
        predictor: optional named predictor from ``NAMED_PREDICTORS``.
        **overrides: additional ``MachineConfig`` field overrides.
    """
    from repro.registry import REGISTRY

    if predictor is None and algorithm is not None:
        predictor = REGISTRY.metadata("algorithm", algorithm).get(
            "default_predictor"
        )
    predictor_config = (
        REGISTRY.create("predictor", predictor)
        if predictor
        else PredictorConfig()
    )
    return MachineConfig(predictor=predictor_config, **overrides)
