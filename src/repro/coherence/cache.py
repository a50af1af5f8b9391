"""Set-associative cache model with LRU replacement.

The cache tracks line addresses (integers, already divided by the line
size) and their coherence state.  Data values are modeled as integer
*versions* so the test suite can check that readers always observe the
most recent completed write (see ``MachineConfig.track_versions``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.config import CacheConfig
from repro.coherence.states import LineState

_I = LineState.I

#: Pending content of one set: addresses in LRU order, and their state
#: codes (``None`` when every line has the default state).
PendingSet = Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]


class CacheLine:
    """One resident cache line.

    Attributes:
        address: line address (block address, no offset bits).
        state: coherence state; never ``I`` while resident (invalid
            lines are simply absent from the cache).
        version: monotonically increasing data version, used by the
            optional coherence-correctness checker.

    A plain ``__slots__`` class rather than a dataclass: one instance
    is allocated per fill and simulations perform millions of fills,
    so the per-instance ``__dict__`` would dominate the allocation
    profile.
    """

    __slots__ = ("address", "state", "version")

    def __init__(
        self, address: int, state: LineState, version: int = 0
    ) -> None:
        self.address = address
        self.state = state
        self.version = version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CacheLine(address=%#x, state=%s, version=%d)" % (
            self.address,
            self.state,
            self.version,
        )


class EvictionRecord:
    """Describes a line evicted to make room for a fill."""

    __slots__ = ("address", "state", "version", "dirty")

    def __init__(
        self, address: int, state: LineState, version: int
    ) -> None:
        self.address = address
        self.state = state
        self.version = version
        self.dirty = state.dirty

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "EvictionRecord(address=%#x, state=%s, dirty=%r)" % (
            self.address,
            self.state,
            self.dirty,
        )


class _Sets(dict):  # type: ignore[type-arg]
    """Set index -> the set's lines in LRU order, built on first access.

    A set starts from its pending content (see
    :meth:`SetAssociativeCache.install`), or empty.  ``get`` and ``in``
    do not build a set; indexing does.
    """

    __slots__ = ("pending", "states", "default")

    def __init__(self) -> None:
        super().__init__()
        self.pending: Dict[int, PendingSet] = {}
        self.states: Mapping[int, LineState] = {}
        self.default = _I

    def __missing__(self, index: int) -> "OrderedDict[int, CacheLine]":
        cache_set: "OrderedDict[int, CacheLine]" = OrderedDict()
        data = self.pending.get(index)
        if data is not None:
            addresses, codes = data
            if codes is None:
                state = self.default
                for address in addresses:
                    cache_set[address] = CacheLine(address, state, 0)
            else:
                states = self.states
                for address, code in zip(addresses, codes):
                    cache_set[address] = CacheLine(address, states[code], 0)
        self[index] = cache_set
        return cache_set


class SetAssociativeCache:
    """An LRU set-associative cache keyed by line address.

    ``on_state_loss`` is invoked whenever a line leaves the cache or is
    invalidated/downgraded out of a supplier state; the supplier
    predictors subscribe to it to stay synchronized with the cache
    (Section 4.3.1: "when any of these lines is evicted or invalidated,
    the hardware removes the address from the Supplier Predictor").

    Sets are built on first touch: prewarmed content waits as per-set
    tuples (:meth:`install`), and read-only probes (``state_of``,
    ``in``, ``len``, ``lru_order``, ``occupancy_of_set``) answer from
    them without building lines.
    """

    def __init__(
        self,
        config: CacheConfig,
        on_state_loss: Optional[Callable[[int], None]] = None,
        on_state_gain: Optional[Callable[[int], None]] = None,
        on_line_added: Optional[Callable[[int], None]] = None,
        on_line_removed: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.config = config
        # num_sets/associativity are dataclass properties; hoisting them
        # to plain ints keeps the per-access set-index computation free
        # of descriptor lookups.
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        self._sets = _Sets()
        self._on_state_loss = on_state_loss
        self._on_state_gain = on_state_gain
        self._on_line_added = on_line_added
        self._on_line_removed = on_line_removed
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0

    # ------------------------------------------------------------------
    # Lookup

    def lookup(self, address: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line, updating LRU order on a hit."""
        cache_set = self._sets[address % self._num_sets]
        line = cache_set.get(address)
        if line is not None and touch:
            cache_set.move_to_end(address)
        return line

    def state_of(self, address: int) -> LineState:
        """Return the line's state, ``I`` if not resident (no LRU touch,
        and no set is built)."""
        index = address % self._num_sets
        sets = self._sets
        cache_set = sets.get(index)
        if cache_set is not None:
            line = cache_set.get(address)
            return _I if line is None else line.state
        data = sets.pending.get(index)
        if data is None:
            return _I
        addresses, codes = data
        if address not in addresses:
            return _I
        if codes is None:
            return sets.default
        return sets.states[codes[addresses.index(address)]]

    def __contains__(self, address: int) -> bool:
        return self.state_of(address) is not _I

    def __len__(self) -> int:
        sets = self._sets
        return sum(len(s) for s in sets.values()) + sum(
            len(addresses)
            for index, (addresses, _) in sets.pending.items()
            if index not in sets
        )

    def iter_lines(self) -> Iterator[CacheLine]:
        """Iterate over all resident lines, set by set (test/diagnostic
        use; builds the sets it visits)."""
        sets = self._sets
        for index in range(self._num_sets):
            if index in sets or index in sets.pending:
                yield from sets[index].values()

    def install(
        self,
        pending: Dict[int, PendingSet],
        states: Mapping[int, LineState],
        default: LineState,
    ) -> None:
        """Adopt prewarmed content into an untouched cache without
        building it: per set index, addresses in LRU order and their
        state codes, keys of ``states`` (``None``: every line is in
        ``default``).  Lines are clean, at version 0.  ``pending``
        is shared, never modified.  No callback fires and no counter
        moves; the installer accounts for both."""
        sets = self._sets
        sets.pending = pending
        sets.states = states
        sets.default = default

    # ------------------------------------------------------------------
    # Mutation

    def fill(
        self, address: int, state: LineState, version: int = 0
    ) -> Optional[EvictionRecord]:
        """Insert a line, evicting the LRU line of the set if full.

        Returns the eviction record of the victim, or ``None`` if no
        eviction was needed.  Filling an already-resident line updates
        its state in place (callers should normally use
        ``set_state`` for that, but fill is tolerant).
        """
        if state is LineState.I:
            raise ValueError("cannot fill a line in state I")
        cache_set = self._sets[address % self._num_sets]
        existing = cache_set.get(address)
        if existing is not None:
            self._change_state(existing, state)
            existing.version = version
            cache_set.move_to_end(address)
            return None

        victim_record: Optional[EvictionRecord] = None
        if len(cache_set) >= self._associativity:
            victim_address, victim = cache_set.popitem(last=False)
            victim_record = EvictionRecord(
                victim_address, victim.state, victim.version
            )
            self.evictions += 1
            if victim_record.dirty:
                self.dirty_evictions += 1
            if victim.state.supplier and self._on_state_loss:
                self._on_state_loss(victim_address)
            if self._on_line_removed:
                self._on_line_removed(victim_address)

        cache_set[address] = CacheLine(address, state, version)
        self.fills += 1
        if self._on_line_added:
            self._on_line_added(address)
        if state.supplier and self._on_state_gain:
            self._on_state_gain(address)
        return victim_record

    def set_state(self, address: int, state: LineState) -> None:
        """Transition a resident line to a new state.

        Transitioning to ``I`` removes the line.  Supplier-state gains
        and losses fire the predictor-synchronization callbacks.
        """
        cache_set = self._sets[address % self._num_sets]
        line = cache_set.get(address)
        if line is None:
            raise KeyError("line %#x not resident" % address)
        if state is LineState.I:
            del cache_set[address]
            if line.state.supplier and self._on_state_loss:
                self._on_state_loss(address)
            if self._on_line_removed:
                self._on_line_removed(address)
            return
        self._change_state(line, state)

    def _change_state(self, line: CacheLine, state: LineState) -> None:
        was_supplier = line.state.supplier
        now_supplier = state.supplier
        line.state = state
        if was_supplier and not now_supplier and self._on_state_loss:
            self._on_state_loss(line.address)
        if now_supplier and not was_supplier and self._on_state_gain:
            self._on_state_gain(line.address)

    def invalidate(self, address: int) -> Optional[CacheLine]:
        """Remove the line if resident; return the removed line."""
        cache_set = self._sets[address % self._num_sets]
        line = cache_set.pop(address, None)
        if line is not None:
            if line.state.supplier and self._on_state_loss:
                self._on_state_loss(address)
            if self._on_line_removed:
                self._on_line_removed(address)
        return line

    def touch(self, address: int) -> None:
        """Mark a line most-recently-used without changing it."""
        cache_set = self._sets[address % self._num_sets]
        if address in cache_set:
            cache_set.move_to_end(address)

    # ------------------------------------------------------------------
    # Diagnostics

    def occupancy_of_set(self, set_index: int) -> int:
        return len(self.lru_order(set_index))

    def lru_order(self, set_index: int) -> List[int]:
        """Addresses of one set from least- to most-recently used."""
        sets = self._sets
        cache_set = sets.get(set_index)
        if cache_set is not None:
            return list(cache_set)
        data = sets.pending.get(set_index)
        return [] if data is None else list(data[0])


def copies_of(
    caches: "List[Tuple[Tuple[int, int], SetAssociativeCache]]",
    address: int,
) -> Dict[Tuple[int, int], LineState]:
    """The state of every resident copy of ``address`` in ``caches``,
    keyed as given and in their order.

    The caches share one geometry, so the set index is computed once;
    each set is read where it lives, built or still pending, and never
    built here (no LRU touch either).  This is
    :meth:`SetAssociativeCache.state_of` over many caches without a
    method call per cache - the per-retire invariant check's scan.
    """
    if not caches:
        return {}
    index = address % caches[0][1]._num_sets
    copies: Dict[Tuple[int, int], LineState] = {}
    for key, cache in caches:
        sets = cache._sets
        cache_set = sets.get(index)
        if cache_set is not None:
            line = cache_set.get(address)
            if line is not None:
                copies[key] = line.state
            continue
        data = sets.pending.get(index)
        if data is not None:
            addresses, codes = data
            if address in addresses:
                copies[key] = (
                    sets.default
                    if codes is None
                    else sets.states[codes[addresses.index(address)]]
                )
    return copies
