"""Struct-of-arrays fused simulation core (``core=soa``).

The default core: **bit-identical** :meth:`SimulationResult.summary`
output to :class:`repro.sim.system.RingMultiprocessor` for the
configurations it supports, about twice as fast.  Both are built
through :func:`repro.sim.cores.build_core`, so the harness, the result
cache and the CLI treat them as interchangeable engines behind one
seam.

Where the speed comes from
--------------------------

The object core is a faithful layered decomposition: engine, walker,
transaction manager, datapath, caches, nodes - each hop of a ring walk
crosses several of those layers through bound methods, per-event
closures and ``OrderedDict`` operations.  This core flattens all of it
into **one function frame**:

* **Struct-of-arrays state.**  A cache line is one int,
  ``state | version << 3`` with an integer-coded state, stored under
  its address in a plain per-set dict (insertion order *is* LRU order:
  a touch is ``del d[a]; d[a] = v``).  A fill allocates no container,
  and a set of ints is a dict the cyclic collector never tracks.
  Transactions are flat lists indexed by module-level slot constants;
  there are no message objects, no dataclasses and no closures on the
  hot path.
* **A fused event loop.**  One ``heapq`` of ``(time, seq, op, a, b)``
  tuples replaces the engine + callback indirection; each ring hop is
  one dispatch, as each is one engine event on the object core.
* **Single-frame counters.**  Every statistic and energy accumulator
  is a local variable of :meth:`SoaRingMultiprocessor.run`; the
  warmup reset is a block of assignments instead of object churn.
* **Lazily installed prewarm.**  The prewarm image from
  :mod:`repro.sim.prewarm` (the one walk and memo both cores share)
  keeps each set as address and state tuples; they become
  ``_pending_sets`` as they are, and a set is materialized only when
  the run first touches it, by one ``dict.fromkeys`` or
  ``dict(zip(...))`` over those tuples.

Equivalence contract
--------------------

``summary()`` (and the full ``RunStats`` / energy breakdown) is
bit-identical to the object core because every counter is incremented
at the same simulated instant in the same relative event order, and
every float in the output is either a sum of identically-ordered
additions of one constant or a single division of integer counters.
The golden suite (``tests/golden``) and a Hypothesis property test
(``tests/property/test_soa_equivalence_properties.py``) enforce this.

Supported envelope
------------------

The fused loop implements the paper's main configuration space plus
the loaded regime's contention models: per-link occupancy
(``ring.link_occupancy``) and snoop-port serialization
(``ring.serialize_snoop_port``) run as flat "next free cycle" lists
hoisted from the topology's ``segment_links()`` descriptors, booked
at the same three sites as ``RingWalker``.

Observability is inside the envelope too.  A trace sink (passed in,
or resolved from ``config.tracing``) receives the object core's
:class:`~repro.obs.trace.TraceEvent` stream: the same events at the
same simulated instants, with the same transaction ids and payloads,
in the same order, so the JSONL file a traced run writes is
byte-identical on both cores.  Each emission site costs one hoisted
local bool when tracing is off.  ``check_invariants`` runs the same
per-retire line check as the object core and raises the same
:class:`~repro.coherence.protocol.CoherenceError` messages.

Every topology is inside it: the walk reads the per-requester rows of
:meth:`~repro.ring.topology.SnoopTopology.export_tables`, the same
rows ``RingWalker`` reads, so a path-dependent ``route`` runs here as
a static cycle does.

The write filter (presence predictors), version tracking and the
metrics timeline (``tracing.sample_window``) are outside it:
:func:`check_soa_supported` raises :class:`SoaUnsupportedError` with
the concrete reason, before anything is built, and the run falls back
to the object core.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.coherence.protocol import CoherenceError, ProtocolTables
from repro.coherence.states import LineState
from repro.config import MachineConfig
from repro.core.algorithms import SnoopingAlgorithm
from repro.core.decision import DecisionContext
from repro.core.predictors import (
    PerfectPredictor,
    SupplierPredictor,
    build_predictor,
)
from repro.core.primitives import Primitive
from repro.energy.model import EnergyModel
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.stats import PredictorAccuracy, RunStats
from repro.obs.trace import (
    NO_TXN,
    EventType,
    TraceEvent,
    TraceSink,
    resolve_sink,
)
from repro.ring.topology import build_topology
from repro.sim.prewarm import SetImage, prewarm_image
from repro.sim.system import SimulationResult
from repro.workloads.source import as_source

__all__ = [
    "SoaRingMultiprocessor",
    "SoaUnsupportedError",
    "check_soa_supported",
]


class SoaUnsupportedError(ValueError):
    """The requested configuration needs the object core."""


def check_soa_supported(config: MachineConfig) -> None:
    """Raise :class:`SoaUnsupportedError` unless ``config`` is inside
    the SoA core's envelope.

    The excluded features thread per-event mutable state through the
    object core's subsystem seams (presence filters, version checks,
    timeline probes); supporting them here would reintroduce exactly
    the indirection this core removes.  Every topology, link and
    snoop-port contention, trace emission and the per-retire invariant
    checks are inside the envelope.
    """
    reasons = []
    if config.filter_write_snoops:
        reasons.append("filter_write_snoops (presence-filter extension)")
    if config.track_versions:
        reasons.append("track_versions (version violation tracking)")
    if config.tracing.sample_window > 0:
        reasons.append("tracing.sample_window (metrics timeline)")
    if reasons:
        raise SoaUnsupportedError(
            "core=soa does not support: %s" % "; ".join(reasons)
        )


# ----------------------------------------------------------------------
# Integer state coding.  Lines are never resident in state I, so it has
# no code; flag tables are indexed by the state integer.  Prewarm
# images (``repro.sim.prewarm.E``/``SL``) use the same codes.

_S, _SL, _SG, _E, _D, _T = 0, 1, 2, 3, 4, 5

#: A resident line packs into one int: ``state | version << _VSHIFT``.
#: ``line & _STATE`` is its state code, ``line >> _VSHIFT`` its version,
#: and ``line & _VERSION | code`` the same version in another state.
#: A prewarmed line (version 0) is its state code.
_VSHIFT = 3
_STATE = (1 << _VSHIFT) - 1
_VERSION = ~_STATE

#: state.supplier / state.local_master / state.dirty by integer code.
_SUP = (False, False, True, True, True, True)
_LM = (False, True, True, True, True, True)
_DIRTY = (False, False, False, False, True, True)

#: supplier_next_state_on_read by integer code (SG->SG, E->SG, D->T,
#: T->T; other entries are never read).
_NEXT_ON_READ = (_S, _SL, _SG, _SG, _T, _T)

#: The protocol's line state by integer code (invariant checks).
_LINE_STATE = (
    LineState.S,
    LineState.SL,
    LineState.SG,
    LineState.E,
    LineState.D,
    LineState.T,
)

# Primitive codes (``repro.core.primitives.Primitive`` mapped to ints).
_P_FWD, _P_FTS, _P_STF = 0, 1, 2
_PRIM_INT = {
    Primitive.FORWARD: _P_FWD,
    Primitive.FORWARD_THEN_SNOOP: _P_FTS,
    Primitive.SNOOP_THEN_FORWARD: _P_STF,
}
#: A trace's ``primitive`` field by primitive code.
_PRIM_VALUE = tuple(p.value for p in sorted(_PRIM_INT, key=_PRIM_INT.get))

# Trace event types, hoisted for the emission sites.
_ISSUE = EventType.ISSUE
_HOP = EventType.HOP
_PREDICTOR = EventType.PREDICTOR
_SNOOP = EventType.SNOOP
_SUPPLY = EventType.SUPPLY
_SQUASH = EventType.SQUASH
_RETRY = EventType.RETRY
_MSHR = EventType.MSHR
_FILL = EventType.FILL
_DOWNGRADE = EventType.DOWNGRADE
_RETIRE = EventType.RETIRE

# Transaction record slots.
_T_WRITE = 0  # bool: write transaction
_T_ADDR = 1
_T_REQ = 2  # requester CMP
_T_CORE = 3  # core record (list, see _K_* below)
_T_ISSUE = 4  # issue time
_T_NEEDS = 5  # write needs data from ring/memory
_T_DA = 6  # data arrival time or None
_T_SVER = 7  # supplied version
_T_PREF = 8  # prefetch initiated
_T_WAIT = 9  # MSHR waiter core records
_T_RET = 10  # retired
_T_NEXT = 11  # next ring node (pending STEP event)
_T_SPLIT = 12  # message mode is SPLIT
_T_REPLY = 13  # trailing reply time (SPLIT only)
_T_SAT = 14  # satisfied (combined reply)
_T_SATR = 15  # satisfied_reply
_T_SQ = 16  # squashed
_T_RETRY = 17  # requester retry count snapshot (decision context)
_T_LINKS = 18  # per-node link slots of the embedded ring (contention)
_T_ID = 19  # transaction id (the object core's txn_id)

# Core record slots.
_K_ID = 0
_K_CMP = 1
_K_LOC = 2
_K_STREAM = 3
_K_CUR = 4
_K_FIN = 5

# Event op codes (heap entries are ``(time, seq, op, a, b)``).
_OP_ISSUE = 0
_OP_STEP = 1
_OP_WALKDONE = 2
_OP_INVAL = 3
_OP_RETRY = 4
_OP_DELIVER_READ = 5
_OP_DELIVER_MEM = 6
_OP_COMMIT = 7
_OP_RETIRE = 8
_OP_REISSUE = 9


def _build_set(data: Optional[SetImage]) -> Dict[int, int]:
    """A cache set's packed lines from its pending prewarm content (an
    empty set when there is none)."""
    if data is None:
        return {}
    addresses, states = data
    if states is None:
        return dict.fromkeys(addresses, _E)
    return dict(zip(addresses, states))


class SoaRingMultiprocessor:
    """Drop-in fused-core replacement for ``RingMultiprocessor``.

    Same constructor signature and the same
    :class:`~repro.sim.system.SimulationResult` out of :meth:`run`;
    raises :class:`SoaUnsupportedError` for configurations outside the
    fused loop's envelope (see :func:`check_soa_supported`).
    """

    def __init__(
        self,
        config: MachineConfig,
        algorithm: SnoopingAlgorithm,
        workload: object,
        warmup_fraction: float = 0.0,
        trace_sink: Optional[TraceSink] = None,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        check_soa_supported(config)
        source = as_source(workload)
        if not source.streaming:
            source.materialize().validate()
        if source.num_cmps != config.num_cmps:
            raise ValueError(
                "workload spans %d CMPs but machine has %d"
                % (source.num_cmps, config.num_cmps)
            )
        if source.cores_per_cmp != config.cores_per_cmp:
            raise ValueError(
                "workload uses %d cores/CMP but machine has %d"
                % (source.cores_per_cmp, config.cores_per_cmp)
            )
        self.config = config
        self.algorithm = algorithm
        # Resolved predictor kind onto the policy (see
        # SnoopingAlgorithm.bind_predictor_kind): a predictor override
        # must charge lookup latency/energy like the object core does.
        algorithm.bind_predictor_kind(config.predictor.kind)
        self.source = source
        self.warmup_fraction = warmup_fraction
        # Observability, as on the object core: a sink passed
        # explicitly wins, and its caller closes it; otherwise one is
        # resolved when config.tracing asks for it, and the run closes
        # it.  ``self.trace`` is None when tracing is off.
        self._closes_trace = trace_sink is None and config.tracing.enabled
        if self._closes_trace:
            trace_sink = resolve_sink(config.tracing.sink)
        self.trace: Optional[TraceSink] = trace_sink

        num_cmps = config.num_cmps
        cpc = config.cores_per_cmp
        num_cores = num_cmps * cpc
        num_sets = config.cache.num_sets
        # Per-core cache state: one dict per set, insertion order = LRU
        # order, values are packed lines (state | version << 3).  Sets
        # start as ``None`` placeholders and materialize on first touch
        # (from ``_pending_sets`` when the prewarm image has content
        # for them): a short run visits a small fraction of the
        # num_cores x num_sets grid, and skipping the untouched
        # majority makes construction - the prewarm install above all -
        # nearly free.
        self._core_sets: List[List[Optional[Dict[int, int]]]] = [
            [None] * num_sets for _ in range(num_cores)
        ]
        #: Lazily installed prewarm content: per core, set index ->
        #: (address tuple, state tuple or None-for-all-E), shared
        #: read-only with the prewarm image.
        self._pending_sets: List[Dict[int, SetImage]] = [
            {} for _ in range(num_cores)
        ]
        self._supplier_of: Dict[int, Tuple[int, int]] = {}
        self._holder_count: Dict[int, int] = {}
        self._downgraded: set = set()
        self._mem_versions: Dict[int, int] = {}
        self._predictors: List[SupplierPredictor] = [
            build_predictor(config.predictor) for _ in range(num_cmps)
        ]
        for cmp_id, predictor in enumerate(self._predictors):
            if isinstance(predictor, PerfectPredictor):
                predictor.set_truth(self._make_truth(cmp_id))
        #: Occupancy counters with RingWalker's semantics (cumulative
        #: link-reservation cycles and snoop-port queueing delay, never
        #: reset at warmup end); set by :meth:`run`.
        self.link_busy_cycles = 0
        self.port_wait_cycles = 0
        self._ran = False
        # Prewarm-time stat/energy charges: an Exact image's conflict
        # downgrades, charged (and traced at time 0) as the object core
        # charges them on its construction-time stats.
        self._init_downgrades = 0
        self._init_e_downgrade_ops = 0.0
        image = prewarm_image(source, config)
        if image is not None:
            self._pending_sets = image.sets
            self._holder_count.update(image.holder_count)
            self._supplier_of.update(image.supplier_of)
            image.train(self._predictors, config.predictor)
            cost = config.energy.downgrade_cache_access
            charged = 0.0
            trace = self.trace
            for cmp_id, addresses in enumerate(image.downgrades):
                self._init_downgrades += len(addresses)
                self._downgraded.update(addresses)
                # One addition per downgrade, as the object core's
                # energy model charges them.
                for _ in addresses:
                    charged += cost
                if trace is not None:
                    for address in addresses:
                        trace.emit(
                            TraceEvent(
                                0,
                                _DOWNGRADE,
                                NO_TXN,
                                cmp_id,
                                address,
                                {"writeback": False},
                            )
                        )
            self._init_e_downgrade_ops = charged

    # ------------------------------------------------------------------
    # Construction helpers

    def _make_truth(self, cmp_id: int) -> Callable[[int], bool]:
        supplier_of = self._supplier_of

        def truth(address: int) -> bool:
            entry = supplier_of.get(address)
            return entry is not None and entry[0] == cmp_id

        return truth

    # ------------------------------------------------------------------
    # The fused run loop

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        """Replay the workload to completion."""
        if self._ran:
            raise RuntimeError("a SoaRingMultiprocessor can only run once")
        self._ran = True
        try:
            return self._run_loop(max_events)
        finally:
            if self.config.predictor.kind == "exact":
                # The run-phase handlers close over the loop's cache
                # state and the predictors themselves: dropping them
                # lets reference counting free the machine, whether
                # its run finished or stopped.
                for predictor in self._predictors:
                    predictor.set_downgrade_callback(None)  # type: ignore[attr-defined]
            if self._closes_trace and self.trace is not None:
                self.trace.close()

    def _run_loop(self, max_events: Optional[int]) -> SimulationResult:
        """The fused loop: one function frame holds the event heap, all
        machine state and every counter."""
        config = self.config
        algorithm = self.algorithm
        source = self.source
        num_cmps = config.num_cmps
        cpc = config.cores_per_cmp
        num_cores = num_cmps * cpc
        num_sets = config.cache.num_sets
        associativity = config.cache.associativity
        snoop_time = config.ring.snoop_time
        occupancy = config.ring.link_occupancy
        link_contention = bool(occupancy)
        port_contention = config.ring.serialize_snoop_port
        hit_latency = config.cache.hit_latency
        local_master_latency = config.cache.local_master_latency
        squash_backoff = config.squash_backoff
        prefetch_on_snoop = config.memory.prefetch_on_snoop
        mem_local = config.memory.local_round_trip
        mem_remote = config.memory.remote_round_trip
        mem_prefetched = config.memory.remote_round_trip_prefetched
        cost_ring = config.energy.ring_link_message
        cost_snoop = config.energy.cmp_snoop
        cost_dop = config.energy.downgrade_cache_access
        cost_dmem = config.energy.memory_line_access

        # The topology's walk rows, indexed [requester][node] as in
        # RingWalker: successor, predecessor, entry latency and ring
        # age of every node on each requester's walk; plus the full
        # data-network latency matrix.
        topology = build_topology(config)
        rows = topology.export_tables()
        succ = [row.successor for row in rows]
        pred = [row.predecessor for row in rows]
        in_lat = [row.entry_latency for row in rows]
        ring_age = [row.ring_age for row in rows]
        torus_lat = [
            [
                topology.transfer_latency(src, dst)
                for dst in range(num_cmps)
            ]
            for src in range(num_cmps)
        ]

        # Contention models (RingWalker._cross_link and
        # _reserve_snoop_port): "next free cycle" of every physical
        # link and of every CMP snoop port, as flat lists.  Link ids
        # from the topology's segment_links() are re-coded densely:
        # "ring"-scoped links get one slot per embedded ring, "shared"
        # ones (the hier_ring global ring) a single slot after them.
        # ``seg_links[ring][node]`` lists the slots a crossing of the
        # segment out of ``node`` books on embedded ring ``ring``.
        ring_of = topology.ring_of
        seg_links: List[List[Tuple[int, ...]]] = []
        link_free: List[int] = []
        if link_contention:
            ring_ids: Dict[int, int] = {}
            shared_ids: Dict[int, int] = {}
            node_links = []
            for node in range(num_cmps):
                links = topology.segment_links(node)
                node_links.append((
                    [
                        ring_ids.setdefault(lid, len(ring_ids))
                        for scope, lid in links
                        if scope == "ring"
                    ],
                    [
                        shared_ids.setdefault(lid, len(shared_ids))
                        for scope, lid in links
                        if scope != "ring"
                    ],
                ))
            per_ring = len(ring_ids)
            shared_base = per_ring * config.ring.num_rings
            seg_links = [
                [
                    tuple(ring * per_ring + i for i in ring_part)
                    + tuple(shared_base + i for i in shared_part)
                    for ring_part, shared_part in node_links
                ]
                for ring in range(config.ring.num_rings)
            ]
            link_free = [0] * (shared_base + len(shared_ids))
        port_free = [0] * num_cmps
        #: Walker occupancy counters: charged at reservation time and,
        #: like RingWalker's, never reset at warmup end.
        link_busy_cycles = port_wait_cycles = 0

        uses_pred = algorithm.uses_predictor()
        decouple = algorithm.decouple_writes
        # Decision seam: a policy that publishes a static table is
        # hoisted into plain ints here and never called per hop; a
        # dynamic policy (table is None, e.g. SupersetHybrid with an
        # energy-pressure probe) keeps the per-hop Python call with a
        # full decision context.
        table = algorithm.decision_table()
        static_choice = table is not None
        if static_choice:
            prim_true = _PRIM_INT[table.on_true]
            prim_false = _PRIM_INT[table.on_false]
            crit_true = _PRIM_INT[table.critical_true]
            crit_false = _PRIM_INT[table.critical_false]
            retry_thr = table.retry_threshold
            waiter_thr = table.waiter_threshold
            has_crit = table.has_criticality()
            count_pred_true = table.counts == "pred_true"
            count_critical = table.counts == "critical"
        else:
            prim_true = prim_false = crit_true = crit_false = _P_FWD
            retry_thr = waiter_thr = 1 << 62
            has_crit = False
            count_pred_true = count_critical = False
        counted = static_choice and table.counts is not None
        #: counted-output tally (folded back into the algorithm's
        #: declared counter after the run; never reset at warmup end,
        #: matching the object core's counters)
        choice_count = 0
        choose = algorithm.choose
        predictors = self._predictors
        is_perfect = isinstance(predictors[0], PerfectPredictor)
        kind = config.predictor.kind
        is_superset = kind == "superset"
        pred_latency = 0 if is_perfect else predictors[0].latency
        pred_lookup = [p.lookup for p in predictors]
        pred_insert = [p.insert for p in predictors]
        pred_remove = [p.remove for p in predictors]
        pred_observe = [p.observe_false_positive for p in predictors]
        has_pred_table = kind not in ("none", "perfect")

        core_sets = self._core_sets
        pending_sets = self._pending_sets
        supplier_of = self._supplier_of
        holder_count = self._holder_count
        downgraded = self._downgraded
        mem_versions = self._mem_versions

        # Observability: ``tracing`` is the one local bool an emission
        # site tests when tracing is off.  Events follow the object
        # core's emission sites one for one.
        trace = self.trace
        tracing = trace is not None
        emit = trace.emit if trace is not None else None

        def materialize(core_id: int, set_index: int) -> Dict[int, int]:
            """Build a cache set on first touch.  Prewarm content waits
            in ``pending_sets`` as tuples (shared read-only with
            the prewarm image) until something actually looks at the
            set; everything else starts empty.  Access sites check
            ``is None`` inline and only pay this call once per touched
            set."""
            cache_set = _build_set(pending_sets[core_id].get(set_index))
            core_sets[core_id][set_index] = cache_set
            return cache_set

        # Requester criticality: retry count of each core's current
        # access (reset at fresh issue, bumped per retry, snapshotted
        # onto the transaction record at ring issue).
        core_retries = [0] * num_cores

        # --- measurement state (single-frame locals) -------------------
        reads = writes = 0
        read_hits_local_cache = read_hits_local_master = 0
        write_hits_exclusive = 0
        read_ring_transactions = read_snoops = read_ring_crossings = 0
        reads_supplied_by_cache = reads_supplied_by_memory = 0
        reads_prefetched = 0
        write_ring_transactions = write_snoops = write_ring_crossings = 0
        writes_supplied_by_cache = writes_supplied_by_memory = 0
        squashes = retries = mshr_queued = 0
        a_tp = a_tn = a_fp = a_fn = 0  # predictor accuracy
        p_tp = p_tn = 0  # perfect-predictor accuracy (TP/TN only)
        writebacks = dirty_evictions = 0
        downgrades = self._init_downgrades
        downgrade_writebacks = 0
        downgrade_rereads = 0
        read_miss_latency_sum = read_miss_count = 0
        supplier_latency_sum = supplier_latency_count = 0
        histogram = LatencyHistogram()
        e_ring = e_snoop = 0.0
        e_dops = self._init_e_downgrade_ops
        e_dmem = 0.0

        # --- machine state --------------------------------------------
        heap: List[tuple] = []
        push = heapq.heappush
        pop = heapq.heappop
        seq = 0
        now = 0
        processed = 0
        write_counter = 0
        txn_seq = 0  # the object core's TransactionManager._txn_seq
        active: Dict[int, List[list]] = {}

        total_accesses = source.total_accesses()
        warmup_target = (
            int(total_accesses * self.warmup_fraction)
            if self.warmup_fraction > 0.0
            else 0
        )
        in_warmup = warmup_target > 0
        completed = 0
        warmup_end_time = 0

        cores: List[list] = []
        for i in range(num_cores):
            stream = iter(source.core_stream(i))
            first = next(stream, None)
            cores.append([i, i // cpc, i % cpc, stream, first, None])

        # --- fused subsystem closures ---------------------------------

        def end_warmup() -> None:
            nonlocal in_warmup, warmup_end_time, reads, writes
            nonlocal read_hits_local_cache, read_hits_local_master
            nonlocal write_hits_exclusive, read_ring_transactions
            nonlocal read_snoops, read_ring_crossings
            nonlocal reads_supplied_by_cache, reads_supplied_by_memory
            nonlocal reads_prefetched, write_ring_transactions
            nonlocal write_snoops, write_ring_crossings
            nonlocal writes_supplied_by_cache, writes_supplied_by_memory
            nonlocal squashes, retries, mshr_queued
            nonlocal a_tp, a_tn, a_fp, a_fn, p_tp, p_tn
            nonlocal writebacks, dirty_evictions, downgrades
            nonlocal downgrade_writebacks, downgrade_rereads
            nonlocal read_miss_latency_sum, read_miss_count
            nonlocal supplier_latency_sum, supplier_latency_count
            nonlocal histogram, e_ring, e_snoop, e_dops, e_dmem
            in_warmup = False
            warmup_end_time = now
            reads = writes = 0
            read_hits_local_cache = read_hits_local_master = 0
            write_hits_exclusive = 0
            read_ring_transactions = read_snoops = read_ring_crossings = 0
            reads_supplied_by_cache = reads_supplied_by_memory = 0
            reads_prefetched = 0
            write_ring_transactions = write_snoops = write_ring_crossings = 0
            writes_supplied_by_cache = writes_supplied_by_memory = 0
            squashes = retries = mshr_queued = 0
            a_tp = a_tn = a_fp = a_fn = 0
            p_tp = p_tn = 0
            writebacks = dirty_evictions = 0
            downgrades = downgrade_writebacks = downgrade_rereads = 0
            read_miss_latency_sum = read_miss_count = 0
            supplier_latency_sum = supplier_latency_count = 0
            histogram = LatencyHistogram()
            e_ring = e_snoop = e_dops = e_dmem = 0.0
            for predictor in predictors:
                predictor.lookups = 0
                predictor.updates = 0
            # Warmup-era link and port bookings must not delay measured
            # traffic (RingWalker.on_warmup_end).
            link_free[:] = [0] * len(link_free)
            port_free[:] = [0] * num_cmps

        if has_pred_table and kind == "exact":
            # Rebind the conflict-downgrade callback to a run-phase
            # handler charging the loop-local accumulators.
            def _make_run_downgrade(cmp_id: int) -> Callable[[int], None]:
                remove = pred_remove[cmp_id]
                base = cmp_id * cpc

                def downgrade(address: int) -> None:
                    nonlocal downgrades, downgrade_writebacks
                    nonlocal e_dops, e_dmem, writebacks
                    line = None
                    local = 0
                    set_index = address % num_sets
                    for local in range(cpc):
                        cache_set = core_sets[base + local][set_index]
                        if cache_set is None:
                            # A never-touched set without pending
                            # prewarm content cannot hold the line.
                            if set_index not in pending_sets[base + local]:
                                continue
                            cache_set = materialize(base + local, set_index)
                        candidate = cache_set.get(address)
                        if candidate is not None and _SUP[candidate & _STATE]:
                            line = candidate
                            break
                    if line is None:
                        return
                    writeback = _DIRTY[line & _STATE]
                    if writeback:
                        version = line >> _VSHIFT
                        if version >= mem_versions.get(address, 0):
                            mem_versions[address] = version
                        downgrade_writebacks += 1
                        e_dmem += cost_dmem
                    cache_set[address] = line & _VERSION | _SL
                    remove(address)
                    if supplier_of.get(address) == (cmp_id, local):
                        del supplier_of[address]
                    downgrades += 1
                    e_dops += cost_dop
                    downgraded.add(address)
                    if tracing:
                        emit(
                            TraceEvent(
                                now,
                                _DOWNGRADE,
                                NO_TXN,
                                cmp_id,
                                address,
                                {"writeback": writeback},
                            )
                        )

                return downgrade

            for cmp_id, predictor in enumerate(predictors):
                predictor.set_downgrade_callback(  # type: ignore[attr-defined]
                    _make_run_downgrade(cmp_id)
                )

        def fill(core: list, address: int, state: int, version: int) -> None:
            nonlocal dirty_evictions, writebacks
            cmp_id = core[1]
            local_id = core[2]
            set_index = address % num_sets
            cache_set = core_sets[core[0]][set_index]
            if cache_set is None:
                cache_set = materialize(core[0], set_index)
            line = cache_set.get(address)
            if line is not None:
                old_state = line & _STATE
                if _SUP[old_state]:
                    if not _SUP[state]:
                        # supplier loss: predictor, then registry.
                        if has_pred_table:
                            pred_remove[cmp_id](address)
                        if supplier_of.get(address) == (cmp_id, local_id):
                            del supplier_of[address]
                elif _SUP[state]:
                    existing = supplier_of.get(address)
                    if existing is not None and existing != (
                        cmp_id,
                        local_id,
                    ):
                        raise CoherenceError(
                            "line %#x gained supplier at %s while %s "
                            "still holds it"
                            % (address, (cmp_id, local_id), existing)
                        )
                    supplier_of[address] = (cmp_id, local_id)
                    if has_pred_table:
                        pred_insert[cmp_id](address)
                del cache_set[address]
                cache_set[address] = state | version << _VSHIFT
                return
            if len(cache_set) >= associativity:
                victim_address = next(iter(cache_set))
                victim = cache_set.pop(victim_address)
                victim_state = victim & _STATE
                if _SUP[victim_state]:
                    if has_pred_table:
                        pred_remove[cmp_id](victim_address)
                    if supplier_of.get(victim_address) == (cmp_id, local_id):
                        del supplier_of[victim_address]
                count = holder_count.get(victim_address, 0) - 1
                if count <= 0:
                    holder_count.pop(victim_address, None)
                else:
                    holder_count[victim_address] = count
                if _DIRTY[victim_state]:
                    dirty_evictions += 1
                    version_out = victim >> _VSHIFT
                    if version_out >= mem_versions.get(victim_address, 0):
                        mem_versions[victim_address] = version_out
                    writebacks += 1
            cache_set[address] = state | version << _VSHIFT
            holder_count[address] = holder_count.get(address, 0) + 1
            if _SUP[state]:
                existing = supplier_of.get(address)
                if existing is not None and existing != (cmp_id, local_id):
                    raise CoherenceError(
                        "line %#x gained supplier at %s while %s still "
                        "holds it" % (address, (cmp_id, local_id), existing)
                    )
                supplier_of[address] = (cmp_id, local_id)
                if has_pred_table:
                    pred_insert[cmp_id](address)

        def invalidate_all(cmp_id: int, address: int) -> None:
            base = cmp_id * cpc
            set_index = address % num_sets
            for local_id in range(cpc):
                cache_set = core_sets[base + local_id][set_index]
                if cache_set is None:
                    if set_index not in pending_sets[base + local_id]:
                        continue
                    cache_set = materialize(base + local_id, set_index)
                line = cache_set.pop(address, None)
                if line is None:
                    continue
                if _SUP[line & _STATE]:
                    if has_pred_table:
                        pred_remove[cmp_id](address)
                    if supplier_of.get(address) == (cmp_id, local_id):
                        del supplier_of[address]
                count = holder_count.get(address, 0) - 1
                if count <= 0:
                    holder_count.pop(address, None)
                else:
                    holder_count[address] = count

        # Per-retire invariant checks (config.check_invariants): every
        # core's copy of the line, read from its set or its pending
        # prewarm content without building the set; the key order
        # (CMP, then core) is the object core's, so a violation raises
        # the identical CoherenceError.  The scan does not trust the
        # supplier and holder indexes: the check exists to catch state
        # they got wrong.
        line_scan = (
            list(zip(
                [divmod(core_id, cpc) for core_id in range(num_cores)],
                core_sets,
                pending_sets,
            ))
            if config.check_invariants
            else None
        )

        def check_line(address: int) -> None:
            set_index = address % num_sets
            holders: Dict[Tuple[int, int], int] = {}
            for key, sets, pending in line_scan:
                cache_set = sets[set_index]
                if cache_set is not None:
                    line = cache_set.get(address)
                    if line is not None:
                        holders[key] = line & _STATE
                    continue
                data = pending.get(set_index)
                if data is not None:
                    addresses, states = data
                    if address in addresses:
                        holders[key] = (
                            _E
                            if states is None
                            else states[addresses.index(address)]
                        )
            if len(holders) > 1:
                ProtocolTables.check_line(
                    {key: _LINE_STATE[code] for key, code in holders.items()},
                    address,
                )

        def retire(txn: list) -> None:
            nonlocal seq
            if txn[_T_RET]:
                return
            txn[_T_RET] = True
            address = txn[_T_ADDR]
            if tracing:
                emit(
                    TraceEvent(
                        now,
                        _RETIRE,
                        txn[_T_ID],
                        txn[_T_REQ],
                        address,
                        {
                            "kind": "write" if txn[_T_WRITE] else "read",
                            "squashed": txn[_T_SQ],
                        },
                    )
                )
            active_list = active.get(address)
            if active_list and txn in active_list:
                active_list.remove(txn)
                if not active_list:
                    del active[address]
            if line_scan is not None:
                check_line(address)
            waiters = txn[_T_WAIT]
            if waiters:
                txn[_T_WAIT] = []
                for position, waiter in enumerate(waiters):
                    if tracing:
                        emit(
                            TraceEvent(
                                now,
                                _MSHR,
                                txn[_T_ID],
                                txn[_T_REQ],
                                address,
                                {
                                    "phase": "reissue",
                                    "core": waiter[_K_ID],
                                    "position": position,
                                },
                            )
                        )
                    seq += 1
                    push(heap, (now, seq, _OP_REISSUE, waiter, 0))

        def complete_access(core: list, at_time: int) -> None:
            nonlocal completed, seq
            core[_K_CUR] = current = next(core[_K_STREAM], None)
            completed += 1
            if in_warmup and completed >= warmup_target:
                end_warmup()
            if current is None:
                core[_K_FIN] = at_time
                return
            if at_time < now:
                at_time = now
            seq += 1
            push(
                heap,
                (at_time + current.think_time, seq, _OP_ISSUE, core, 0),
            )

        def cross_link(links: Tuple[int, ...], departure: int) -> int:
            """RingWalker._cross_link over link slots: depart when the
            last of the segment's links frees up, then hold them all
            for ``occupancy`` cycles."""
            nonlocal link_busy_cycles
            actual = departure
            for slot in links:
                free = link_free[slot]
                if free > actual:
                    actual = free
            until = actual + occupancy
            for slot in links:
                link_free[slot] = until
            link_busy_cycles += occupancy * len(links)
            return actual

        def walk(txn: list, node_id: int, at: int, entering: bool) -> None:
            """Process one hop of the ring walk at ``node_id``: the
            arrival at that node when ``entering``, else the initial
            forward out of the requester; then schedule the arrival at
            the next node."""
            nonlocal seq, read_ring_crossings, write_ring_crossings
            nonlocal e_ring, e_snoop, read_snoops, write_snoops
            nonlocal p_tp, p_tn, a_tp, a_tn, a_fp, a_fn
            nonlocal reads_supplied_by_cache, supplier_latency_sum
            nonlocal supplier_latency_count, writes_supplied_by_cache
            nonlocal choice_count, port_wait_cycles
            requester = txn[_T_REQ]
            is_write = txn[_T_WRITE]
            address = txn[_T_ADDR]
            if entering:
                if node_id == requester:
                    # _walk_returned: the final reply crossing
                    # (books no link, as in RingWalker).
                    if txn[_T_SPLIT]:
                        info_time = (
                            txn[_T_REPLY] + in_lat[requester][requester]
                        )
                        e_ring += cost_ring
                        if is_write:
                            write_ring_crossings += 1
                        else:
                            read_ring_crossings += 1
                    else:
                        info_time = at
                    if info_time < at:
                        info_time = at
                    seq += 1
                    push(heap, (info_time, seq, _OP_WALKDONE, txn, 0))
                    return
                if txn[_T_SPLIT]:
                    # Advance the trailing reply into this node
                    # (under link contention it books the segment
                    # the request just crossed).
                    if link_contention:
                        txn[_T_REPLY] = (
                            cross_link(
                                txn[_T_LINKS][pred[requester][node_id]],
                                txn[_T_REPLY],
                            )
                            + in_lat[requester][node_id]
                        )
                    else:
                        txn[_T_REPLY] += in_lat[requester][node_id]
                    e_ring += cost_ring
                    if is_write:
                        write_ring_crossings += 1
                    else:
                        read_ring_crossings += 1
                if txn[_T_SQ] or txn[_T_SAT]:
                    departure = at
                elif is_write:
                    # ------------------- write step ----------------
                    entry = supplier_of.get(address)
                    supplier_here = (
                        entry is not None and entry[0] == node_id
                    )
                    snoop_done = at + snoop_time
                    if port_contention:
                        # _reserve_snoop_port: queue behind the
                        # CMP's previous snoop.
                        begin = port_free[node_id]
                        if begin > at:
                            port_wait_cycles += begin - at
                            snoop_done = begin + snoop_time
                        port_free[node_id] = snoop_done
                    if decouple:
                        # FORWARD_THEN_SNOOP
                        if txn[_T_SPLIT]:
                            reply_time = txn[_T_REPLY]
                            if snoop_done > reply_time:
                                reply_time = snoop_done
                        else:
                            reply_time = snoop_done
                        txn[_T_SPLIT] = True
                        txn[_T_REPLY] = reply_time
                        departure = at
                    else:
                        # SNOOP_THEN_FORWARD, never the supplier.
                        if txn[_T_SPLIT]:
                            departure = txn[_T_REPLY]
                            if snoop_done > departure:
                                departure = snoop_done
                            if txn[_T_SATR]:
                                txn[_T_SAT] = True
                            txn[_T_SPLIT] = False
                            txn[_T_REPLY] = 0
                        else:
                            departure = snoop_done
                    write_snoops += 1
                    e_snoop += cost_snoop
                    if tracing:
                        emit(
                            TraceEvent(
                                at,
                                _SNOOP,
                                txn[_T_ID],
                                node_id,
                                address,
                                {
                                    "kind": "write",
                                    "primitive": _PRIM_VALUE[
                                        _P_FTS if decouple else _P_STF
                                    ],
                                    "snoop_done": snoop_done,
                                    "supplied": False,
                                },
                            )
                        )
                    if (
                        supplier_here
                        and txn[_T_NEEDS]
                        and txn[_T_DA] is None
                    ):
                        # capture_write_supply
                        base = node_id * cpc
                        set_index = address % num_sets
                        for local_id in range(cpc):
                            cache_set = core_sets[base + local_id][
                                set_index
                            ]
                            if cache_set is None:
                                if (
                                    set_index
                                    not in pending_sets[base + local_id]
                                ):
                                    continue
                                cache_set = materialize(
                                    base + local_id, set_index
                                )
                            line = cache_set.get(address)
                            if line is not None and _SUP[line & _STATE]:
                                break
                        txn[_T_SVER] = line >> _VSHIFT
                        txn[_T_DA] = (
                            snoop_done + torus_lat[node_id][requester]
                        )
                        writes_supplied_by_cache += 1
                        if tracing:
                            emit(
                                TraceEvent(
                                    snoop_done,
                                    _SUPPLY,
                                    txn[_T_ID],
                                    node_id,
                                    address,
                                    {
                                        "kind": "write",
                                        "form": "reply",
                                        "version": txn[_T_SVER],
                                        "data_arrival": txn[_T_DA],
                                    },
                                )
                            )
                    seq += 1
                    push(
                        heap,
                        (snoop_done, seq, _OP_INVAL, node_id, address),
                    )
                else:
                    # ------------------- read step -----------------
                    entry = supplier_of.get(address)
                    supplier_here = (
                        entry is not None and entry[0] == node_id
                    )
                    if not txn[_T_SATR] and not txn[_T_SAT]:
                        if supplier_here:
                            p_tp += 1
                        else:
                            p_tn += 1
                    if uses_pred:
                        if is_perfect:
                            predictors[node_id].lookups += 1
                            prediction = supplier_here
                        else:
                            prediction = pred_lookup[node_id](address)
                            if prediction:
                                if supplier_here:
                                    a_tp += 1
                                else:
                                    a_fp += 1
                            else:
                                if supplier_here:
                                    a_fn += 1
                                else:
                                    a_tn += 1
                        plat = pred_latency
                        if tracing:
                            emit(
                                TraceEvent(
                                    at,
                                    _PREDICTOR,
                                    txn[_T_ID],
                                    node_id,
                                    address,
                                    {
                                        "kind": kind,
                                        "prediction": prediction,
                                        "truth": supplier_here,
                                    },
                                )
                            )
                    else:
                        prediction = True
                        plat = 0
                    if static_choice:
                        if has_crit and (
                            txn[_T_RETRY] >= retry_thr
                            or len(txn[_T_WAIT]) >= waiter_thr
                        ):
                            primitive = (
                                crit_true if prediction else crit_false
                            )
                            if count_critical:
                                choice_count += 1
                        else:
                            primitive = (
                                prim_true if prediction else prim_false
                            )
                        if count_pred_true and prediction:
                            choice_count += 1
                    else:
                        primitive = _PRIM_INT[
                            choose(
                                DecisionContext(
                                    prediction,
                                    retries=txn[_T_RETRY],
                                    waiters=len(txn[_T_WAIT]),
                                    ring_age=ring_age[requester][node_id],
                                )
                            )
                        ]
                    if primitive == _P_FWD:
                        if supplier_here:
                            raise CoherenceError(
                                "algorithm %s filtered the snoop at the "
                                "supplier node (false negative on line "
                                "%#x at CMP %d)"
                                % (algorithm.name, address, node_id)
                            )
                        if (
                            prefetch_on_snoop
                            and node_id == address % num_cmps
                            and not txn[_T_PREF]
                            and not txn[_T_SATR]
                        ):
                            txn[_T_PREF] = True
                        departure = at + plat
                    else:
                        start = at + plat
                        snoop_done = start + snoop_time
                        if port_contention:
                            begin = port_free[node_id]
                            if begin > start:
                                port_wait_cycles += begin - start
                                snoop_done = begin + snoop_time
                            port_free[node_id] = snoop_done
                        supplied = False
                        if primitive == _P_STF:
                            if supplier_here:
                                txn[_T_SAT] = True
                                txn[_T_SATR] = True
                                txn[_T_SPLIT] = False
                                txn[_T_REPLY] = 0
                                departure = snoop_done
                                supplied = True
                            elif txn[_T_SPLIT]:
                                departure = txn[_T_REPLY]
                                if snoop_done > departure:
                                    departure = snoop_done
                                if txn[_T_SATR]:
                                    txn[_T_SAT] = True
                                txn[_T_SPLIT] = False
                                txn[_T_REPLY] = 0
                            else:
                                departure = snoop_done
                        else:
                            # FORWARD_THEN_SNOOP
                            if txn[_T_SPLIT]:
                                reply_time = txn[_T_REPLY]
                                if snoop_done > reply_time:
                                    reply_time = snoop_done
                            else:
                                reply_time = snoop_done
                            if supplier_here:
                                txn[_T_SATR] = True
                                supplied = True
                            txn[_T_SPLIT] = True
                            txn[_T_REPLY] = reply_time
                            departure = start
                        read_snoops += 1
                        e_snoop += cost_snoop
                        if tracing:
                            emit(
                                TraceEvent(
                                    at,
                                    _SNOOP,
                                    txn[_T_ID],
                                    node_id,
                                    address,
                                    {
                                        "kind": "read",
                                        "primitive": _PRIM_VALUE[primitive],
                                        "snoop_done": snoop_done,
                                        "supplied": supplied,
                                    },
                                )
                            )
                        if (
                            is_superset
                            and uses_pred
                            and not supplier_here
                            and prediction
                        ):
                            pred_observe[node_id](address)
                        if supplied:
                            # supply_read
                            base = node_id * cpc
                            set_index = address % num_sets
                            for local_id in range(cpc):
                                cache_set = core_sets[base + local_id][
                                    set_index
                                ]
                                if cache_set is None:
                                    if (
                                        set_index
                                        not in pending_sets[
                                            base + local_id
                                        ]
                                    ):
                                        continue
                                    cache_set = materialize(
                                        base + local_id, set_index
                                    )
                                line = cache_set.get(address)
                                if line is not None and _SUP[line & _STATE]:
                                    break
                            cache_set[address] = (
                                line & _VERSION
                                | _NEXT_ON_READ[line & _STATE]
                            )
                            txn[_T_SVER] = line >> _VSHIFT
                            data_arrival = (
                                snoop_done
                                + torus_lat[node_id][requester]
                            )
                            txn[_T_DA] = data_arrival
                            reads_supplied_by_cache += 1
                            supplier_latency_sum += (
                                snoop_done - txn[_T_ISSUE]
                            )
                            supplier_latency_count += 1
                            if tracing:
                                emit(
                                    TraceEvent(
                                        snoop_done,
                                        _SUPPLY,
                                        txn[_T_ID],
                                        node_id,
                                        address,
                                        {
                                            "kind": "read",
                                            "form": (
                                                "combined"
                                                if txn[_T_SAT]
                                                else "reply"
                                            ),
                                            "version": txn[_T_SVER],
                                            "data_arrival": data_arrival,
                                        },
                                    )
                                )
                            seq += 1
                            push(
                                heap,
                                (
                                    data_arrival,
                                    seq,
                                    _OP_DELIVER_READ,
                                    txn,
                                    0,
                                ),
                            )
                        if (
                            prefetch_on_snoop
                            and node_id == address % num_cmps
                            and not txn[_T_PREF]
                            and not txn[_T_SATR]
                        ):
                            txn[_T_PREF] = True
            else:
                departure = at
            # ----------------------- forward_request ---------------
            e_ring += cost_ring
            if is_write:
                write_ring_crossings += 1
            else:
                read_ring_crossings += 1
            if link_contention:
                departure = cross_link(txn[_T_LINKS][node_id], departure)
            to_node = succ[requester][node_id]
            arrival = departure + in_lat[requester][to_node]
            if tracing:
                emit(
                    TraceEvent(
                        departure,
                        _HOP,
                        txn[_T_ID],
                        node_id,
                        address,
                        {
                            "to": to_node,
                            "arrival": arrival,
                            "mode": "split" if txn[_T_SPLIT] else "combined",
                            "satisfied": txn[_T_SAT],
                            "squashed": txn[_T_SQ],
                        },
                    )
                )
            txn[_T_NEXT] = to_node
            seq += 1
            push(heap, (arrival, seq, _OP_STEP, txn, 0))

        def handle_read(core: list) -> None:
            nonlocal reads, read_hits_local_cache, read_hits_local_master
            reads += 1
            address = core[_K_CUR].address
            set_index = address % num_sets
            cache_set = core_sets[core[0]][set_index]
            if cache_set is None:
                cache_set = materialize(core[0], set_index)
            line = cache_set.get(address)
            if line is not None:
                read_hits_local_cache += 1
                del cache_set[address]
                cache_set[address] = line
                complete_access(core, now + hit_latency)
                return
            if cpc == 1:
                # A single-core CMP is its own local master, so the
                # scan below would only repeat the failed lookup.
                start_ring(core, address, False)
                return
            base = core[1] * cpc
            master_line = None
            master_local = 0
            for master_local in range(cpc):
                master_set = core_sets[base + master_local][set_index]
                if master_set is None:
                    master_set = materialize(base + master_local, set_index)
                candidate = master_set.get(address)
                if candidate is not None and _LM[candidate & _STATE]:
                    master_line = candidate
                    break
            if master_line is not None:
                master_state = master_line & _STATE
                if _SUP[master_state]:
                    master_line = (
                        master_line & _VERSION | _NEXT_ON_READ[master_state]
                    )
                master_set = core_sets[base + master_local][set_index]
                del master_set[address]
                master_set[address] = master_line
                read_hits_local_master += 1
                fill(core, address, _S, master_line >> _VSHIFT)
                complete_access(core, now + local_master_latency)
                return
            start_ring(core, address, False)

        def handle_write(core: list) -> None:
            nonlocal writes, write_hits_exclusive, write_counter
            writes += 1
            address = core[_K_CUR].address
            set_index = address % num_sets
            cache_set = core_sets[core[0]][set_index]
            if cache_set is None:
                cache_set = materialize(core[0], set_index)
            line = cache_set.get(address)
            if line is not None and (
                line & _STATE == _E or line & _STATE == _D
            ):
                write_hits_exclusive += 1
                write_counter += 1
                # The object core's silent-upgrade path ends with an
                # own.lookup(address), which touches the LRU.
                del cache_set[address]
                cache_set[address] = _D | write_counter << _VSHIFT
                complete_access(core, now + hit_latency)
                return
            start_ring(core, address, True)

        def start_ring(core: list, address: int, is_write: bool) -> None:
            nonlocal mshr_queued, read_ring_transactions
            nonlocal write_ring_transactions, txn_seq
            cmp_id = core[1]
            active_list = active.get(address)
            squashed = False
            if active_list:
                for txn in active_list:
                    if txn[_T_REQ] == cmp_id:
                        waiters = txn[_T_WAIT]
                        if tracing:
                            emit(
                                TraceEvent(
                                    now,
                                    _MSHR,
                                    txn[_T_ID],
                                    cmp_id,
                                    address,
                                    {
                                        "phase": "wait",
                                        "core": core[_K_ID],
                                        "position": len(waiters),
                                    },
                                )
                            )
                        waiters.append(core)
                        mshr_queued += 1
                        return
                if is_write:
                    squashed = any(
                        not t[_T_RET] and not t[_T_SQ] for t in active_list
                    )
                else:
                    squashed = any(
                        not t[_T_RET] and not t[_T_SQ] and t[_T_WRITE]
                        for t in active_list
                    )
            txn_seq += 1
            txn = [
                is_write,  # _T_WRITE
                address,  # _T_ADDR
                cmp_id,  # _T_REQ
                core,  # _T_CORE
                now,  # _T_ISSUE
                False,  # _T_NEEDS
                None,  # _T_DA
                0,  # _T_SVER
                False,  # _T_PREF
                [],  # _T_WAIT
                False,  # _T_RET
                0,  # _T_NEXT
                False,  # _T_SPLIT
                0,  # _T_REPLY
                False,  # _T_SAT
                False,  # _T_SATR
                squashed,  # _T_SQ
                core_retries[core[_K_ID]],  # _T_RETRY
                seg_links[ring_of(address)] if link_contention else None,
                txn_seq,  # _T_ID
            ]
            if is_write:
                base = cmp_id * cpc
                set_index = address % num_sets
                needs_data = True
                for local_id in range(cpc):
                    cache_set = core_sets[base + local_id][set_index]
                    if cache_set is None:
                        if set_index not in pending_sets[base + local_id]:
                            continue
                        cache_set = materialize(base + local_id, set_index)
                    if address in cache_set:
                        needs_data = False
                        break
                txn[_T_NEEDS] = needs_data
            if active_list is not None:
                active_list.append(txn)
            else:
                active[address] = [txn]
            if tracing:
                emit(
                    TraceEvent(
                        now,
                        _ISSUE,
                        txn_seq,
                        cmp_id,
                        address,
                        {
                            "kind": "write" if is_write else "read",
                            "core": core[_K_ID],
                            "squashed": squashed,
                            "retries": txn[_T_RETRY],
                        },
                    )
                )
            if not squashed:
                if is_write:
                    write_ring_transactions += 1
                else:
                    read_ring_transactions += 1
            walk(txn, cmp_id, now, False)

        def commit_write(txn: list, at_time: int) -> None:
            nonlocal write_counter
            write_counter += 1
            core = txn[_T_CORE]
            address = txn[_T_ADDR]
            invalidate_all(core[1], address)
            if tracing:
                emit(
                    TraceEvent(
                        at_time,
                        _FILL,
                        txn[_T_ID],
                        core[1],
                        address,
                        {"source": "write", "version": write_counter},
                    )
                )
            fill(core, address, _D, write_counter)
            complete_access(core, at_time)
            retire(txn)

        # --- start: every core's first access -------------------------
        for core in cores:
            current = core[_K_CUR]
            if current is not None:
                seq += 1
                push(heap, (current.think_time, seq, _OP_ISSUE, core, 0))
            else:
                core[_K_FIN] = 0

        # --- the event loop -------------------------------------------
        while heap:
            if max_events is not None and processed >= max_events:
                break
            event = pop(heap)
            now = event[0]
            op = event[2]
            processed += 1
            if op == _OP_STEP:
                txn = event[3]
                walk(txn, txn[_T_NEXT], now, True)
            elif op == _OP_ISSUE:
                core = event[3]
                core_retries[core[_K_ID]] = 0
                if core[_K_CUR].is_write:
                    handle_write(core)
                else:
                    handle_read(core)
            elif op == _OP_WALKDONE:
                txn = event[3]
                if txn[_T_SQ]:
                    if tracing:
                        emit(
                            TraceEvent(
                                now,
                                _SQUASH,
                                txn[_T_ID],
                                txn[_T_REQ],
                                txn[_T_ADDR],
                                {},
                            )
                        )
                    retire(txn)
                    squashes += 1
                    seq += 1
                    push(
                        heap,
                        (now + squash_backoff, seq, _OP_RETRY, txn, 0),
                    )
                elif txn[_T_WRITE]:
                    # write_done(txn, now)
                    if txn[_T_NEEDS]:
                        data_arrival = txn[_T_DA]
                        if data_arrival is not None:
                            complete_at = (
                                data_arrival if data_arrival > now else now
                            )
                        else:
                            address = txn[_T_ADDR]
                            requester = txn[_T_REQ]
                            if address % num_cmps == requester:
                                latency = mem_local
                            elif txn[_T_PREF] and prefetch_on_snoop:
                                latency = mem_prefetched
                            else:
                                latency = mem_remote
                            writes_supplied_by_memory += 1
                            complete_at = now + latency
                    else:
                        complete_at = now
                    if complete_at > now:
                        seq += 1
                        push(
                            heap,
                            (complete_at, seq, _OP_COMMIT, txn, complete_at),
                        )
                    else:
                        commit_write(txn, complete_at)
                else:
                    # read_done(txn, now)
                    if txn[_T_SAT] or txn[_T_SATR]:
                        data_arrival = txn[_T_DA]
                        if data_arrival > now:
                            seq += 1
                            push(
                                heap,
                                (data_arrival, seq, _OP_RETIRE, txn, 0),
                            )
                        else:
                            retire(txn)
                    else:
                        address = txn[_T_ADDR]
                        requester = txn[_T_REQ]
                        home = address % num_cmps
                        if home == requester:
                            latency = mem_local
                        elif txn[_T_PREF] and prefetch_on_snoop:
                            latency = mem_prefetched
                        else:
                            latency = mem_remote
                        if txn[_T_PREF] and home != requester:
                            reads_prefetched += 1
                        reads_supplied_by_memory += 1
                        if address in downgraded:
                            if holder_count.get(address, 0) > 0:
                                e_dmem += cost_dmem
                                downgrade_rereads += 1
                            downgraded.discard(address)
                        data_arrival = now + latency
                        txn[_T_DA] = data_arrival
                        seq += 1
                        push(
                            heap,
                            (data_arrival, seq, _OP_DELIVER_MEM, txn, 0),
                        )
            elif op == _OP_DELIVER_READ:
                txn = event[3]
                if tracing:
                    emit(
                        TraceEvent(
                            now,
                            _FILL,
                            txn[_T_ID],
                            txn[_T_REQ],
                            txn[_T_ADDR],
                            {"source": "cache", "version": txn[_T_SVER]},
                        )
                    )
                fill(txn[_T_CORE], txn[_T_ADDR], _SL, txn[_T_SVER])
                latency = txn[_T_DA] - txn[_T_ISSUE]
                read_miss_latency_sum += latency
                read_miss_count += 1
                histogram.record(latency)
                complete_access(txn[_T_CORE], now)
            elif op == _OP_DELIVER_MEM:
                txn = event[3]
                address = txn[_T_ADDR]
                entry = supplier_of.get(address)
                if entry is not None:
                    supplier_cmp, supplier_local = entry
                    supplier_id = supplier_cmp * cpc + supplier_local
                    set_index = address % num_sets
                    cache_set = core_sets[supplier_id][set_index]
                    if cache_set is None:
                        cache_set = materialize(supplier_id, set_index)
                    line = cache_set[address]
                    cache_set[address] = (
                        line & _VERSION | _NEXT_ON_READ[line & _STATE]
                    )
                    version = line >> _VSHIFT
                    state = _SL
                else:
                    version = mem_versions.get(address, 0)
                    state = (
                        _SG if holder_count.get(address, 0) > 0 else _E
                    )
                if tracing:
                    emit(
                        TraceEvent(
                            now,
                            _FILL,
                            txn[_T_ID],
                            txn[_T_REQ],
                            address,
                            {
                                "source": (
                                    "cache" if entry is not None else "memory"
                                ),
                                "version": version,
                            },
                        )
                    )
                fill(txn[_T_CORE], address, state, version)
                latency = txn[_T_DA] - txn[_T_ISSUE]
                read_miss_latency_sum += latency
                read_miss_count += 1
                histogram.record(latency)
                complete_access(txn[_T_CORE], now)
                retire(txn)
            elif op == _OP_INVAL:
                invalidate_all(event[3], event[4])
            elif op == _OP_COMMIT:
                commit_write(event[3], event[4])
            elif op == _OP_RETIRE:
                retire(event[3])
            elif op == _OP_RETRY:
                txn = event[3]
                retries += 1
                core = txn[_T_CORE]
                core_retries[core[_K_ID]] += 1
                if tracing:
                    emit(
                        TraceEvent(
                            now,
                            _RETRY,
                            txn[_T_ID],
                            txn[_T_REQ],
                            txn[_T_ADDR],
                            {},
                        )
                    )
                if core[_K_CUR].is_write:
                    writes -= 1
                    handle_write(core)
                else:
                    reads -= 1
                    handle_read(core)
            else:  # _OP_REISSUE
                core = event[3]
                if core[_K_CUR].is_write:
                    writes -= 1
                    handle_write(core)
                else:
                    reads -= 1
                    handle_read(core)

        # --- finalize --------------------------------------------------
        stats = RunStats()
        stats.reads = reads
        stats.writes = writes
        stats.read_hits_local_cache = read_hits_local_cache
        stats.read_hits_local_master = read_hits_local_master
        stats.write_hits_exclusive = write_hits_exclusive
        stats.read_ring_transactions = read_ring_transactions
        stats.read_snoops = read_snoops
        stats.read_ring_crossings = read_ring_crossings
        stats.reads_supplied_by_cache = reads_supplied_by_cache
        stats.reads_supplied_by_memory = reads_supplied_by_memory
        stats.reads_prefetched = reads_prefetched
        stats.write_ring_transactions = write_ring_transactions
        stats.write_snoops = write_snoops
        stats.write_ring_crossings = write_ring_crossings
        stats.writes_supplied_by_cache = writes_supplied_by_cache
        stats.writes_supplied_by_memory = writes_supplied_by_memory
        stats.squashes = squashes
        stats.retries = retries
        stats.mshr_queued = mshr_queued
        stats.accuracy = PredictorAccuracy(a_tp, a_tn, a_fp, a_fn)
        stats.perfect_accuracy = PredictorAccuracy(p_tp, p_tn, 0, 0)
        stats.writebacks = writebacks
        stats.dirty_evictions = dirty_evictions
        stats.downgrades = downgrades
        stats.downgrade_writebacks = downgrade_writebacks
        stats.downgrade_rereads = downgrade_rereads
        stats.read_miss_latency_sum = read_miss_latency_sum
        stats.read_miss_count = read_miss_count
        stats.supplier_latency_sum = supplier_latency_sum
        stats.supplier_latency_count = supplier_latency_count
        stats.read_miss_histogram = histogram
        stats.core_finish_times = [
            core[_K_FIN] if core[_K_FIN] is not None else -1
            for core in cores
        ]
        unfinished = [
            core[_K_ID] for core in cores if core[_K_FIN] is None
        ]
        if unfinished:
            raise RuntimeError(
                "simulation ended with unfinished cores: %s" % unfinished
            )
        finish = max(stats.core_finish_times, default=0)
        stats.exec_time = max(finish - warmup_end_time, 0)
        stats.events_scheduled = seq
        stats.events_fired = processed
        self.link_busy_cycles = link_busy_cycles
        self.port_wait_cycles = port_wait_cycles

        if counted:
            # Counted policy output (e.g. hybrid aggressive_choices,
            # criticality critical_choices): fold the fused loop's
            # tally back into the algorithm's declared counter.
            algorithm.fold_choice_counts(choice_count)

        energy = EnergyModel(config.energy, kind)
        breakdown = energy.breakdown
        breakdown.ring_links = e_ring
        breakdown.snoops = e_snoop
        breakdown.downgrade_ops = e_dops
        breakdown.downgrade_memory = e_dmem
        for predictor in predictors:
            energy.charge_predictor_lookup(predictor.lookups)
            energy.charge_predictor_update(predictor.updates)

        return SimulationResult(
            algorithm=algorithm.name,
            workload=source.name,
            stats=stats,
            energy=breakdown.as_dict(),
            exec_time=stats.exec_time,
            events=processed,
            config=config,
            core="soa",
        )
