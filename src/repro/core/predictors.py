"""Supplier Predictor implementations (Section 4.3).

A Supplier Predictor sits in a CMP's gateway and predicts whether the
CMP holds the requested line in a *supplier* state (SG, E, D or T).
Four families are implemented:

* :class:`SubsetPredictor` - a set-associative cache of supplier-line
  addresses.  Capacity conflicts silently drop entries, so it keeps a
  strict *subset* of supplier lines: false negatives, never false
  positives.
* :class:`SupersetPredictor` - a counting Bloom filter optionally
  backed by a JETTY-style Exclude cache.  Aliasing creates false
  positives, never false negatives: a strict *superset*.
* :class:`ExactPredictor` - the subset cache enhanced so that on a
  conflict eviction the victim line is *downgraded* in the CMP
  (Section 4.3.3), eliminating false negatives at the cost of extra
  memory traffic.
* :class:`PerfectPredictor` - an oracle that inspects ground truth.

Predictors are trained by cache-state callbacks: ``insert`` when a
line enters a supplier state in the CMP, ``remove`` when it leaves
(eviction, invalidation or downgrade).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import PredictorConfig


class SupplierPredictor:
    """Interface shared by all Supplier Predictors.

    Concrete predictors override ``lookup``, ``insert`` and
    ``remove``.  Statistics counters are kept here so the energy model
    and the accuracy breakdown of Figure 11 can read them uniformly.
    """

    #: predictor family name, matching ``PredictorConfig.kind``
    kind = "abstract"
    #: whether the predictor can report a positive for an absent line
    may_false_positive = False
    #: whether the predictor can report a negative for a present line
    may_false_negative = False

    def __init__(self, config: PredictorConfig) -> None:
        self.config = config
        self.lookups = 0
        self.updates = 0

    def lookup(self, address: int) -> bool:
        """Predict whether the CMP holds ``address`` in supplier state."""
        raise NotImplementedError

    def insert(self, address: int) -> None:
        """Train: ``address`` entered a supplier state in the CMP."""
        raise NotImplementedError

    def remove(self, address: int) -> None:
        """Train: ``address`` left supplier state (evict/invalidate).

        Must be idempotent: removal of an absent address is a no-op.
        """
        raise NotImplementedError

    def observe_false_positive(self, address: int) -> None:
        """Feedback: a snoop triggered by a positive prediction found
        no supplier.  Used by the Exclude cache; default no-op."""

    def prewarm_train(self, ops: Sequence[int]) -> None:
        """Train on the CMP's prewarm stream, in walk order: ``address``
        is ``insert(address)`` and ``~address`` is ``remove(address)``.

        The stream comes from the prewarm walk (``repro.sim.prewarm``),
        so it removes only lines it inserted earlier and has not removed
        since.  This per-op replay serves any predictor; the builtin
        ones override it with a bulk form that leaves exactly the state
        the replay leaves.
        """
        insert = self.insert
        remove = self.remove
        for op in ops:
            if op >= 0:
                insert(op)
            else:
                remove(~op)

    def prewarm_snapshot(self) -> Optional[object]:
        """Capture the predictor's complete state for later restore.

        Used by prewarm images (``repro.sim.prewarm``): training a
        predictor with a workload's prewarm stream is deterministic, so
        the resulting state can be captured once and copied into every
        later predictor built for the same prewarm lines.  Returns
        ``None`` when the predictor does not support snapshotting (then
        callers must replay the training stream instead).
        """
        return None

    def prewarm_restore(self, snapshot: object) -> None:
        """Restore state captured by :meth:`prewarm_snapshot`."""
        raise NotImplementedError(
            "%s does not support prewarm snapshots" % type(self).__name__
        )

    @property
    def latency(self) -> int:
        return self.config.access_latency


class NullPredictor(SupplierPredictor):
    """Predictor used by Lazy and Eager: it always answers "maybe"
    (positive), forcing the algorithm's unconditional behaviour, and
    costs neither time nor energy."""

    kind = "none"

    def lookup(self, address: int) -> bool:
        return True

    def insert(self, address: int) -> None:
        pass

    def remove(self, address: int) -> None:
        pass

    @property
    def latency(self) -> int:
        return 0


class _AddressCache:
    """A small set-associative LRU cache of line addresses.

    Used as the storage substrate of the Subset and Exact predictors
    and of the Exclude cache.  ``insert`` returns the victim address
    when a valid entry had to be overwritten (the conflict-eviction
    hook the Exact predictor needs).

    Each set is a plain list ordered LRU-first (victim at index 0, MRU
    at the end).  At predictor-scale associativities (a handful of
    ways) a linear scan of a small list beats an ``OrderedDict``'s
    hashing and node shuffling, and there is no per-set dict overhead.
    """

    __slots__ = ("entries", "associativity", "num_sets", "_sets")

    def __init__(self, entries: int, associativity: int) -> None:
        if entries % associativity != 0:
            raise ValueError(
                "entries (%d) must be a multiple of associativity (%d)"
                % (entries, associativity)
            )
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]

    def contains(self, address: int, touch: bool = True) -> bool:
        cache_set = self._sets[address % self.num_sets]
        if address in cache_set:
            if touch and cache_set[-1] != address:
                cache_set.remove(address)
                cache_set.append(address)
            return True
        return False

    def insert(self, address: int) -> Optional[int]:
        """Insert; return the evicted victim address, if any."""
        cache_set = self._sets[address % self.num_sets]
        if address in cache_set:
            if cache_set[-1] != address:
                cache_set.remove(address)
                cache_set.append(address)
            return None
        victim = None
        if len(cache_set) >= self.associativity:
            victim = cache_set.pop(0)
        cache_set.append(address)
        return victim

    def remove(self, address: int) -> bool:
        cache_set = self._sets[address % self.num_sets]
        if address in cache_set:
            cache_set.remove(address)
            return True
        return False

    def replay(self, ops: Sequence[int], victims: List[int]) -> int:
        """Apply a prewarm stream (``address`` inserts, ``~address``
        removes) in order, exactly as ``insert``/``remove`` would.

        Appends each conflict victim to ``victims`` and returns the
        number of removes that found their address absent.
        """
        sets = self._sets
        num_sets = self.num_sets
        associativity = self.associativity
        evict = victims.append
        missed = 0
        for op in ops:
            if op >= 0:
                cache_set = sets[op % num_sets]
                if op in cache_set:
                    if cache_set[-1] != op:
                        cache_set.remove(op)
                        cache_set.append(op)
                    continue
                if len(cache_set) >= associativity:
                    evict(cache_set.pop(0))
                cache_set.append(op)
            else:
                address = ~op
                cache_set = sets[address % num_sets]
                if address in cache_set:
                    cache_set.remove(address)
                else:
                    missed += 1
        return missed

    def snapshot(self) -> List[List[int]]:
        """Copy of every set, preserving LRU order."""
        return [list(s) for s in self._sets]

    def restore(self, sets: List[List[int]]) -> None:
        self._sets = [list(s) for s in sets]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)


class SubsetPredictor(SupplierPredictor):
    """Set-associative cache of supplier lines (Section 4.3.1).

    No false positives: every tracked address is genuinely in supplier
    state (removals are synchronous with state loss).  False negatives
    arise when LRU replacement silently drops a valid entry.
    """

    kind = "subset"
    may_false_negative = True

    def __init__(self, config: PredictorConfig) -> None:
        super().__init__(config)
        self._table = _AddressCache(config.entries, config.associativity)
        self.conflict_drops = 0

    def lookup(self, address: int) -> bool:
        self.lookups += 1
        return self._table.contains(address)

    def insert(self, address: int) -> None:
        self.updates += 1
        victim = self._table.insert(address)
        if victim is not None:
            # The victim line is still a supplier in the CMP but is no
            # longer tracked: a future false negative.
            self.conflict_drops += 1

    def remove(self, address: int) -> None:
        self.updates += 1
        self._table.remove(address)

    def prewarm_train(self, ops: Sequence[int]) -> None:
        # Every insert and every remove counts one update.
        drops: List[int] = []
        self._table.replay(ops, drops)
        self.updates += len(ops)
        self.conflict_drops += len(drops)

    def prewarm_snapshot(self) -> Optional[object]:
        return (
            self.lookups,
            self.updates,
            self.conflict_drops,
            self._table.snapshot(),
        )

    def prewarm_restore(self, snapshot: object) -> None:
        lookups, updates, conflict_drops, sets = snapshot  # type: ignore[misc]
        self.lookups = lookups
        self.updates = updates
        self.conflict_drops = conflict_drops
        self._table.restore(sets)

    def __contains__(self, address: int) -> bool:
        return self._table.contains(address, touch=False)


class ExactPredictor(SupplierPredictor):
    """Subset cache whose conflict evictions downgrade the victim line
    in the CMP (Section 4.3.3), so the tracked set stays *exact*.

    The downgrade itself (SG/E -> SL silently; D/T -> write back and
    keep in SL) is carried out by the system through the
    ``downgrade_callback``; the predictor only reports which address
    must be downgraded.
    """

    kind = "exact"

    def __init__(
        self,
        config: PredictorConfig,
        downgrade_callback: Optional[Callable[[int], None]] = None,
    ) -> None:
        super().__init__(config)
        self._table = _AddressCache(config.entries, config.associativity)
        self.downgrades = 0
        self._downgrade_callback = downgrade_callback

    def set_downgrade_callback(
        self, callback: Optional[Callable[[int], None]]
    ) -> None:
        self._downgrade_callback = callback

    def lookup(self, address: int) -> bool:
        self.lookups += 1
        return self._table.contains(address)

    def insert(self, address: int) -> None:
        self.updates += 1
        victim = self._table.insert(address)
        if victim is not None:
            self.downgrades += 1
            if self._downgrade_callback is not None:
                # The cache-state change will try to remove the victim
                # from this predictor again; remove() is idempotent.
                self._downgrade_callback(victim)

    def remove(self, address: int) -> None:
        self.updates += 1
        self._table.remove(address)

    def prewarm_train(
        self, ops: Sequence[int], downgraded: Optional[List[int]] = None
    ) -> None:
        """Train on a predictor-free prewarm walk's stream, applying the
        feedback that walk left out.

        Each conflict victim is downgraded: it counts one downgrade and
        the handler's extra ``remove`` update, and is appended to
        ``downgraded``.  A downgrade leaves the line resident in SL, no
        supplier, so the walk's later eviction of a line the table no
        longer tracks books no remove.  A stream with no such eviction
        trains the predictor exactly as ``insert``/``remove`` calls
        with the downgrade callback would.
        """
        victims: List[int] = [] if downgraded is None else downgraded
        before = len(victims)
        missed = self._table.replay(ops, victims)
        count = len(victims) - before
        self.downgrades += count
        self.updates += len(ops) - missed + count

    def tracked(self) -> Set[int]:
        """The addresses the table tracks (no LRU touch): after
        prewarm, exactly the CMP's lines in a supplier state."""
        return set(chain.from_iterable(self._table._sets))

    def prewarm_snapshot(self) -> Optional[object]:
        return (
            self.lookups,
            self.updates,
            self.downgrades,
            self._table.snapshot(),
        )

    def prewarm_restore(self, snapshot: object) -> None:
        lookups, updates, downgrades, sets = snapshot  # type: ignore[misc]
        self.lookups = lookups
        self.updates = updates
        self.downgrades = downgrades
        self._table.restore(sets)

    def __contains__(self, address: int) -> bool:
        return self._table.contains(address, touch=False)


class CountingBloomFilter:
    """Counting Bloom filter over line addresses (Section 4.3.2).

    The line address is broken into ``len(field_bits)`` consecutive bit
    fields; field *i* indexes a table of ``2**field_bits[i]``
    counters.  An address is (possibly) present when all its counters
    are non-zero.  Counters saturate high enough that overflow is not
    a practical concern for simulation workloads.
    """

    def __init__(self, field_bits: Tuple[int, ...]) -> None:
        if not field_bits:
            raise ValueError("need at least one field")
        self.field_bits = tuple(field_bits)
        self._tables: List[List[int]] = [
            [0] * (1 << bits) for bits in self.field_bits
        ]
        self._shifts: List[int] = []
        shift = 0
        for bits in self.field_bits:
            self._shifts.append(shift)
            shift += bits
        self._fields = tuple(
            (shift, (1 << bits) - 1)
            for shift, bits in zip(self._shifts, self.field_bits)
        )
        # One "any counter non-zero?" bitmask int per table: bit i is
        # set iff table[i] > 0.  ``query`` then needs one shift+AND per
        # field instead of a list index and comparison.
        self._nonzero: List[int] = [0] * len(self._tables)
        # Both of the paper's filter shapes (y and n) use exactly three
        # fields; add/discard/query unroll that case because the
        # generic loop's per-field iteration overhead dominates the
        # actual arithmetic (prewarm alone performs hundreds of
        # thousands of adds).
        self._three = len(self.field_bits) == 3

    def _indices(self, address: int) -> List[int]:
        return [(address >> shift) & mask for shift, mask in self._fields]

    def add(self, address: int) -> None:
        tables = self._tables
        nonzero = self._nonzero
        if self._three:
            (s0, m0), (s1, m1), (s2, m2) = self._fields
            i0 = (address >> s0) & m0
            i1 = (address >> s1) & m1
            i2 = (address >> s2) & m2
            t0, t1, t2 = tables
            if t0[i0] == 0:
                nonzero[0] |= 1 << i0
            t0[i0] += 1
            if t1[i1] == 0:
                nonzero[1] |= 1 << i1
            t1[i1] += 1
            if t2[i2] == 0:
                nonzero[2] |= 1 << i2
            t2[i2] += 1
            return
        for i, index in enumerate(self._indices(address)):
            table = tables[i]
            if table[index] == 0:
                nonzero[i] |= 1 << index
            table[index] += 1

    def discard(self, address: int) -> None:
        tables = self._tables
        nonzero = self._nonzero
        for i, (shift, mask) in enumerate(self._fields):
            index = (address >> shift) & mask
            table = tables[i]
            count = table[index]
            if count <= 0:
                raise ValueError(
                    "bloom counter underflow for address %#x" % address
                )
            table[index] = count - 1
            if count == 1:
                nonzero[i] &= ~(1 << index)

    def add_many(self, addresses: "np.ndarray") -> None:
        """``add`` every address of an int64 array (repeats count
        again).  Counters are sums, so the order does not matter."""
        tables = self._tables
        for i, ((shift, mask), bits) in enumerate(
            zip(self._fields, self.field_bits)
        ):
            counts = np.bincount(
                (addresses >> shift) & mask, minlength=1 << bits
            ) + np.asarray(tables[i], dtype=np.int64)
            tables[i] = counts.tolist()
            self._nonzero[i] = int.from_bytes(
                np.packbits(counts > 0, bitorder="little").tobytes(),
                "little",
            )

    def query(self, address: int) -> bool:
        """True when the address *may* be present (no false negatives
        for addresses added and not discarded)."""
        nonzero = self._nonzero
        if self._three:
            (s0, m0), (s1, m1), (s2, m2) = self._fields
            return bool(
                (nonzero[0] >> ((address >> s0) & m0))
                & (nonzero[1] >> ((address >> s1) & m1))
                & (nonzero[2] >> ((address >> s2) & m2))
                & 1
            )
        for i, (shift, mask) in enumerate(self._fields):
            if not (nonzero[i] >> ((address >> shift) & mask)) & 1:
                return False
        return True

    def snapshot(self) -> Tuple[List[List[int]], List[int]]:
        """Copy of the counter tables and their non-zero bitmasks."""
        return [list(t) for t in self._tables], list(self._nonzero)

    def restore(self, snapshot: Tuple[List[List[int]], List[int]]) -> None:
        tables, nonzero = snapshot
        self._tables = [list(t) for t in tables]
        self._nonzero = list(nonzero)

    @property
    def total_counters(self) -> int:
        return sum(len(t) for t in self._tables)


class SupersetPredictor(SupplierPredictor):
    """Counting Bloom filter + Exclude cache (Section 4.3.2).

    The Bloom filter tracks a superset of the CMP's supplier lines.
    The Exclude cache remembers addresses recently proven *not* to be
    suppliers (false positives observed by actual snoops), masking
    repeat false positives.  Inserting a genuine supplier line
    invalidates any stale Exclude entry for it.
    """

    kind = "superset"
    may_false_positive = True

    def __init__(self, config: PredictorConfig) -> None:
        super().__init__(config)
        self.filter = CountingBloomFilter(config.bloom_fields)
        self.exclude = (
            _AddressCache(config.exclude_entries, config.exclude_associativity)
            if config.exclude_entries > 0
            else None
        )
        self.exclude_hits = 0
        self.exclude_inserts = 0
        # Reference counts let remove() be idempotent even though the
        # underlying Bloom counters are not.
        self._present: Dict[int, int] = {}

    def lookup(self, address: int) -> bool:
        self.lookups += 1
        if not self.filter.query(address):
            return False
        if self.exclude is not None and self.exclude.contains(address):
            self.exclude_hits += 1
            return False
        return True

    def insert(self, address: int) -> None:
        self.updates += 1
        self.filter.add(address)
        self._present[address] = self._present.get(address, 0) + 1
        if self.exclude is not None:
            self.exclude.remove(address)

    def remove(self, address: int) -> None:
        count = self._present.get(address, 0)
        if count <= 0:
            return
        self.updates += 1
        self.filter.discard(address)
        if count == 1:
            del self._present[address]
        else:
            self._present[address] = count - 1

    def observe_false_positive(self, address: int) -> None:
        if self.exclude is not None:
            self.exclude.insert(address)
            self.exclude_inserts += 1
            self.updates += 1

    def prewarm_train(self, ops: Sequence[int]) -> None:
        # Order-free: a prewarm stream removes only present lines, so
        # every op counts one update, what stays present is the
        # inserted lines minus the removed ones, and the Bloom counters
        # count the present lines per field.
        if not ops:
            return
        stream = np.fromiter(ops, dtype=np.int64, count=len(ops))
        lines, counts = np.unique(stream[stream >= 0], return_counts=True)
        gone, gone_counts = np.unique(~stream[stream < 0], return_counts=True)
        counts[np.searchsorted(lines, gone)] -= gone_counts
        kept = counts > 0
        lines = lines[kept]
        counts = counts[kept]
        self.updates += len(ops)
        self.filter.add_many(np.repeat(lines, counts))
        present = self._present
        for address, count in zip(lines.tolist(), counts.tolist()):
            present[address] = present.get(address, 0) + count
        # Inserting a line drops it from the Exclude cache (empty
        # before the run, so prewarm normally leaves it untouched).
        if self.exclude is not None and len(self.exclude):
            for address in set(stream[stream >= 0].tolist()):
                self.exclude.remove(address)

    def prewarm_snapshot(self) -> Optional[object]:
        return (
            self.lookups,
            self.updates,
            self.exclude_hits,
            self.exclude_inserts,
            self.filter.snapshot(),
            self.exclude.snapshot() if self.exclude is not None else None,
            dict(self._present),
        )

    def prewarm_restore(self, snapshot: object) -> None:
        (
            self.lookups,
            self.updates,
            self.exclude_hits,
            self.exclude_inserts,
            filter_snapshot,
            exclude_snapshot,
            present,
        ) = snapshot  # type: ignore[misc]
        self.filter.restore(filter_snapshot)
        if self.exclude is not None and exclude_snapshot is not None:
            self.exclude.restore(exclude_snapshot)
        self._present = dict(present)

    def __contains__(self, address: int) -> bool:
        return self._present.get(address, 0) > 0


class PerfectPredictor(SupplierPredictor):
    """Oracle: consults ground truth provided by the system.

    ``truth`` is a callable mapping an address to whether this CMP
    currently holds it in a supplier state.
    """

    kind = "perfect"

    def __init__(
        self,
        config: PredictorConfig,
        truth: Optional[Callable[[int], bool]] = None,
    ) -> None:
        super().__init__(config)
        self._truth = truth

    def set_truth(self, truth: Callable[[int], bool]) -> None:
        self._truth = truth

    def lookup(self, address: int) -> bool:
        self.lookups += 1
        if self._truth is None:
            raise RuntimeError("PerfectPredictor has no truth source")
        return self._truth(address)

    def insert(self, address: int) -> None:
        pass

    def remove(self, address: int) -> None:
        pass

    @property
    def latency(self) -> int:
        return 0


def build_predictor(config: PredictorConfig) -> SupplierPredictor:
    """Factory: build the predictor selected by ``config.kind``."""
    if config.kind == "none":
        return NullPredictor(config)
    if config.kind == "subset":
        return SubsetPredictor(config)
    if config.kind == "superset":
        return SupersetPredictor(config)
    if config.kind == "exact":
        return ExactPredictor(config)
    if config.kind == "perfect":
        return PerfectPredictor(config)
    raise ValueError("unknown predictor kind %r" % (config.kind,))
