"""Warmup subsystem: prewarm memoization and the warmup-window reset.

Interface contract
==================

:class:`WarmupController` owns the two mechanisms that separate cache
training from measurement:

* **Prewarm** (``apply_prewarm``, called once by the facade at
  construction): installs the workload's prewarm lines in E state via
  a flattened fast path, memoized per (trace identity, cache
  geometry) in the process-level :data:`_PREWARM_MEMOS` store so a
  harness simulating one trace under several algorithms pays the full
  walk once.  The memo is only reusable while predictor training
  cannot feed back into cache contents, so the Exact predictor and
  the presence-filter extension always take the full walk.
* **Warmup-window reset** (``end_warmup``, called by the
  :class:`~repro.sim.transactions.TransactionManager` when the
  completed-access threshold is crossed): builds fresh ``RunStats``
  and ``EnergyModel`` objects, zeroes the predictor/presence/memory
  counters, and asks the facade to broadcast the new measurement
  objects to every subsystem (``rebind_measurement``), which also
  un-suspends the walker's hop batching.

State owned here: ``warmup_target`` / ``in_warmup`` /
``warmup_end_time`` (the facade and the other subsystems read these
at wiring time) and the bounded prewarm memo store.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.coherence.cache import CacheLine
from repro.coherence.protocol import CoherenceError
from repro.coherence.states import LineState
from repro.core.predictors import NullPredictor, PerfectPredictor
from repro.energy.model import EnergyModel
from repro.metrics.stats import RunStats
from repro.workloads.source import descriptor_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.config import MachineConfig
    from repro.core.presence import PresencePredictor
    from repro.ring.node import CMPNode
    from repro.sim.engine import EventEngine
    from repro.sim.memory import MainMemory
    from repro.sim.processor import Core
    from repro.sim.system import RingMultiprocessor
    from repro.workloads.source import WorkloadSource


class _PrewarmMemo:
    """Recorded outcome of one workload's prewarm pass.

    Prewarm is deterministic given the trace and the cache geometry,
    and - as long as nothing couples predictor training back into
    cache contents - independent of the predictor, so a harness that
    simulates the same trace under several algorithms (the figure
    matrices do exactly that) can pay the full prewarm walk once and
    restore its outcome for every later system.

    The memo stores the final cache sets (per core, per set, in LRU
    order; every prewarmed line is in state E with version 0), the
    registry dictionaries, the per-cache fill/eviction counters, and
    the predictor training stream (``ops``: one list per core,
    ``address`` encoding ``insert(address)`` and ``~address`` encoding
    ``remove(address)``).  ``predictor_snapshots`` additionally caches
    the trained predictor state per :class:`PredictorConfig`, so a
    config that recurs (e.g. Supy2k under both Superset variants)
    skips even the training replay.
    """

    __slots__ = (
        "trace",
        "core_sets",
        "core_fills",
        "core_evictions",
        "holder_count",
        "supplier_of",
        "ops",
        "predictor_snapshots",
    )

    def __init__(
        self,
        trace: object,
        core_sets: List[List[Tuple[int, Tuple[int, ...]]]],
        core_fills: List[int],
        core_evictions: List[int],
        holder_count: Dict[int, int],
        supplier_of: Dict[int, Tuple[int, int]],
        ops: List[List[int]],
    ) -> None:
        self.trace = trace
        self.core_sets = core_sets
        self.core_fills = core_fills
        self.core_evictions = core_evictions
        self.holder_count = holder_count
        self.supplier_of = supplier_of
        self.ops = ops
        self.predictor_snapshots: Dict[object, List[object]] = {}


#: Memo key: ("desc", descriptor hash, num_sets, associativity) for
#: sources with a stable content descriptor, or ("id", id(trace),
#: num_sets, associativity) for anonymous in-memory traces.
_MemoKey = Tuple[str, object, int, int]

#: Process-level prewarm memos.  Descriptor-keyed entries are
#: content-addressed, so two equal-but-distinct sources (a regenerated
#: profile, a re-opened file) share one walk across processes' worth
#: of systems.  Identity-keyed entries hold a strong reference to
#: their trace (``memo.trace``), which pins the ``id`` so the key
#: cannot alias a new object; the store is bounded, evicting the
#: oldest entry, so long-running processes do not accumulate traces.
_PREWARM_MEMOS: "OrderedDict[_MemoKey, _PrewarmMemo]" = OrderedDict()
_PREWARM_MEMO_LIMIT = 4


def _ignore_address(address: int) -> None:
    """Stand-in for NullPredictor.insert/remove in the prewarm loop."""
    return None


class WarmupController:
    """Prewarm memoization and the warmup-window measurement reset."""

    def __init__(
        self,
        engine: "EventEngine",
        config: "MachineConfig",
        workload: "WorkloadSource",
        cores: List["Core"],
        nodes: List["CMPNode"],
        presence: List["PresencePredictor"],
        memory: "MainMemory",
        supplier_of: Dict[int, Tuple[int, int]],
        holder_count: Dict[int, int],
        warmup_fraction: float,
    ) -> None:
        self.engine = engine
        self.config = config
        self.workload = workload
        self.cores = cores
        self.nodes = nodes
        self.presence = presence
        self.memory = memory
        self._supplier_of = supplier_of
        self._holder_count = holder_count
        self.warmup_target = (
            int(workload.total_accesses() * warmup_fraction)
            if warmup_fraction > 0.0
            else 0
        )
        self.in_warmup = self.warmup_target > 0
        self.warmup_end_time = 0

    def wire(self, system: "RingMultiprocessor") -> None:
        """Bind the facade (called once, before any event fires); it
        broadcasts measurement rebinds to the other subsystems."""
        self._system = system

    # ------------------------------------------------------------------
    # Warmup-window reset

    def end_warmup(self) -> None:
        """Reset all measurement state; caches and predictors keep
        their trained contents."""
        self.in_warmup = False
        self.warmup_end_time = self.engine.now
        stats = RunStats()
        energy = EnergyModel(
            self.config.energy, self.config.predictor.kind
        )
        for node in self.nodes:
            node.predictor.lookups = 0
            node.predictor.updates = 0
        for presence in self.presence:
            presence.lookups = 0
            presence.updates = 0
            presence.filtered = 0
        self.memory.reads = 0
        self.memory.writebacks = 0
        self.memory.prefetches = 0
        self._system.rebind_measurement(stats, energy)

    # ------------------------------------------------------------------
    # Prewarm

    def apply_prewarm(self) -> None:
        """Install the workload's prewarm lines (resident private data
        of a long-running application) in E state.

        Filled in reverse so the hottest lines (listed first) end up
        most recently used.  Observable effects are identical to
        calling ``cache.fill`` per line (asserted by
        ``test_prewarm_fast_path_matches_generic_fill``), but the
        callback chain - registry bookkeeping, predictor training,
        eviction accounting - is inlined here: prewarm performs
        hundreds of thousands of fills before the first event fires
        and dominates construction cost, so the ~8 Python calls per
        line that the generic path costs are worth flattening.

        The walk's outcome is further memoized per (workload identity,
        cache geometry) in :data:`_PREWARM_MEMOS` and restored
        wholesale for later systems built on the same workload (see
        ``test_prewarm_memo_matches_full_walk``).  Sources with a
        stable content descriptor are keyed by its hash, so the memo
        survives re-resolution of the same spec (a regenerated
        profile, a re-opened trace file); anonymous in-memory traces
        fall back to object identity.  The memo is only valid while
        predictor training cannot feed back into cache contents, so
        the Exact predictor (conflict downgrades) and the
        presence-filter extension always take the full walk.
        """
        prewarm = self.workload.prewarm()
        if not prewarm:
            return
        reusable = (
            not self.presence and self.config.predictor.kind != "exact"
        )
        descriptor = self.workload.descriptor()
        num_sets = self.config.cache.num_sets
        associativity = self.config.cache.associativity
        pin: object
        if descriptor is not None:
            key: _MemoKey = (
                "desc", descriptor_key(descriptor), num_sets, associativity
            )
            pin = self.workload
            if reusable:
                memo = _PREWARM_MEMOS.get(key)
                if memo is not None:
                    self._restore_prewarm(memo)
                    return
        else:
            trace = self.workload.materialize()
            key = ("id", id(trace), num_sets, associativity)
            pin = trace
            if reusable:
                memo = _PREWARM_MEMOS.get(key)
                if memo is not None and memo.trace is trace:
                    self._restore_prewarm(memo)
                    return
        record = reusable
        ops: List[List[int]] = []
        state_e = LineState.E
        supplier_of = self._supplier_of
        holder_count = self._holder_count
        presence = self.presence
        for core, lines in zip(self.cores, prewarm):
            cmp_id = core.cmp_id
            core_id = core.local_id
            node = self.nodes[cmp_id]
            cache = node.caches[core_id]
            if isinstance(node.predictor, (NullPredictor, PerfectPredictor)):
                # Lazy/Eager/Oracle: insert/remove are no-ops; skip
                # the calls.
                predictor_insert = _ignore_address
                predictor_remove = _ignore_address
            else:
                predictor_insert = node.predictor.insert
                predictor_remove = node.predictor.remove
            core_ops: List[int] = []
            if record:
                ops.append(core_ops)
            sets = cache._sets
            num_sets = cache._num_sets
            associativity = cache._associativity
            for address in reversed(lines):
                cache_set = sets[address % num_sets]
                if address in cache_set:
                    # Duplicate prewarm line: take the generic
                    # update-in-place path (rare enough not to matter).
                    cache.fill(address, state_e, 0)
                    continue
                if len(cache_set) >= associativity:
                    victim_address, victim = cache_set.popitem(last=False)
                    cache.evictions += 1
                    if victim.state.dirty:
                        cache.dirty_evictions += 1
                    if victim.state.supplier:
                        # on_state_loss: predictor first, then registry
                        # (same order as the wired callbacks).
                        if record:
                            core_ops.append(~victim_address)
                        predictor_remove(victim_address)
                        if supplier_of.get(victim_address) == (
                            cmp_id,
                            core_id,
                        ):
                            del supplier_of[victim_address]
                    # on_line_removed
                    count = holder_count.get(victim_address, 0) - 1
                    if count <= 0:
                        holder_count.pop(victim_address, None)
                    else:
                        holder_count[victim_address] = count
                    if presence:
                        presence[cmp_id].line_removed(victim_address)
                cache_set[address] = CacheLine(address, state_e, 0)
                cache.fills += 1
                # on_line_added
                holder_count[address] = holder_count.get(address, 0) + 1
                if presence:
                    presence[cmp_id].line_added(address)
                # on_state_gain: register the supplier before training
                # the predictor (an Exact conflict downgrade must see
                # a consistent index), mirroring CMPNode's on_gain.
                existing = supplier_of.get(address)
                if existing is not None and existing != (cmp_id, core_id):
                    raise CoherenceError(
                        "line %#x gained supplier at %s while %s still "
                        "holds it"
                        % (address, (cmp_id, core_id), existing)
                    )
                supplier_of[address] = (cmp_id, core_id)
                if record:
                    core_ops.append(address)
                predictor_insert(address)
        if record:
            self._record_prewarm(key, ops, pin)

    def _record_prewarm(
        self, key: _MemoKey, ops: List[List[int]], pin: object
    ) -> None:
        """Capture the just-completed prewarm walk into the memo store."""
        core_sets: List[List[Tuple[int, Tuple[int, ...]]]] = []
        core_fills: List[int] = []
        core_evictions: List[int] = []
        for core in self.cores:
            cache = self.nodes[core.cmp_id].caches[core.local_id]
            core_sets.append(
                [
                    (index, tuple(cache_set))
                    for index, cache_set in enumerate(cache._sets)
                    if cache_set
                ]
            )
            core_fills.append(cache.fills)
            core_evictions.append(cache.evictions)
        memo = _PrewarmMemo(
            pin,
            core_sets,
            core_fills,
            core_evictions,
            dict(self._holder_count),
            dict(self._supplier_of),
            ops,
        )
        self._store_predictor_snapshot(memo)
        _PREWARM_MEMOS[key] = memo
        while len(_PREWARM_MEMOS) > _PREWARM_MEMO_LIMIT:
            _PREWARM_MEMOS.popitem(last=False)

    def _restore_prewarm(self, memo: _PrewarmMemo) -> None:
        """Re-create the full prewarm outcome from a recorded memo.

        Cache lines are rebuilt fresh (they are mutable), inserted in
        the recorded LRU order; every prewarmed line is E/version 0 by
        construction.  Predictor state is restored from a per-config
        snapshot when one exists, otherwise by replaying the recorded
        training stream through the real predictor methods (which also
        reproduces the predictors' update counters exactly).
        """
        state_e = LineState.E
        for index, core in enumerate(self.cores):
            cache = self.nodes[core.cmp_id].caches[core.local_id]
            sets = cache._sets
            for set_index, addresses in memo.core_sets[index]:
                cache_set = sets[set_index]
                for address in addresses:
                    cache_set[address] = CacheLine(address, state_e, 0)
            cache.fills += memo.core_fills[index]
            cache.evictions += memo.core_evictions[index]
        self._holder_count.update(memo.holder_count)
        self._supplier_of.update(memo.supplier_of)
        kind = self.config.predictor.kind
        if kind in ("none", "perfect"):
            return
        snapshots = memo.predictor_snapshots.get(self.config.predictor)
        if snapshots is not None:
            for node, snapshot in zip(self.nodes, snapshots):
                node.predictor.prewarm_restore(snapshot)
            return
        for core, core_ops in zip(self.cores, memo.ops):
            predictor = self.nodes[core.cmp_id].predictor
            insert = predictor.insert
            remove = predictor.remove
            for op in core_ops:
                if op >= 0:
                    insert(op)
                else:
                    remove(~op)
        self._store_predictor_snapshot(memo)

    def _store_predictor_snapshot(self, memo: _PrewarmMemo) -> None:
        """Cache this config's trained predictor state on the memo, if
        every node's predictor supports snapshotting."""
        if self.config.predictor.kind in ("none", "perfect"):
            return
        snapshots: List[object] = []
        for node in self.nodes:
            snapshot = node.predictor.prewarm_snapshot()
            if snapshot is None:
                return
            snapshots.append(snapshot)
        memo.predictor_snapshots[self.config.predictor] = snapshots
