"""Per-CMP node: the cores' caches, the gateway's Supplier Predictor,
and the snoop helpers the system simulator uses.

A *snoop* at a CMP checks all its on-chip L2 caches in parallel (one
snoop operation in the paper's accounting).  The node also answers the
two locality questions the protocol needs: "is there a supplier here?"
(states SG, E, D, T) and "is there a local master here?" (those plus
SL).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import CacheConfig, PredictorConfig
from repro.coherence.cache import CacheLine, SetAssociativeCache
from repro.coherence.states import LineState  # noqa: F401 - re-export
from repro.core.predictors import (
    ExactPredictor,
    PerfectPredictor,
    SupplierPredictor,
    build_predictor,
)


class LineRegistry:
    """Interface for system-level line-location tracking.

    The full-system simulator implements these hooks to keep O(1)
    supplier/holder indexes consistent with every cache mutation; the
    node chains them behind the predictor-training callbacks.
    """

    def supplier_gain(self, cmp_id: int, core: int, address: int) -> None:
        raise NotImplementedError

    def supplier_loss(self, cmp_id: int, core: int, address: int) -> None:
        raise NotImplementedError

    def line_added(self, cmp_id: int, core: int, address: int) -> None:
        raise NotImplementedError

    def line_removed(self, cmp_id: int, core: int, address: int) -> None:
        raise NotImplementedError


class CMPNode:
    """One CMP: ``cores`` private caches plus one gateway predictor."""

    def __init__(
        self,
        cmp_id: int,
        cores: int,
        cache_config: CacheConfig,
        predictor_config: PredictorConfig,
        registry: Optional[LineRegistry] = None,
    ) -> None:
        self.cmp_id = cmp_id
        self.num_cores = cores
        self.predictor: SupplierPredictor = build_predictor(predictor_config)
        if isinstance(self.predictor, PerfectPredictor):
            self.predictor.set_truth(self.has_supplier)
        self.caches: List[SetAssociativeCache] = [
            SetAssociativeCache(
                cache_config,
                on_state_loss=self._make_loss_handler(core, registry),
                on_state_gain=self._make_gain_handler(core, registry),
                on_line_added=(
                    self._make_added_handler(core, registry)
                    if registry
                    else None
                ),
                on_line_removed=(
                    self._make_removed_handler(core, registry)
                    if registry
                    else None
                ),
            )
            for core in range(cores)
        ]

    def _make_loss_handler(self, core, registry):
        predictor_remove = self.predictor.remove
        if registry is None:
            return predictor_remove
        cmp_id = self.cmp_id
        supplier_loss = registry.supplier_loss

        def on_loss(address: int) -> None:
            predictor_remove(address)
            supplier_loss(cmp_id, core, address)

        return on_loss

    def _make_gain_handler(self, core, registry):
        predictor_insert = self.predictor.insert
        if registry is None:
            return predictor_insert
        cmp_id = self.cmp_id
        supplier_gain = registry.supplier_gain

        def on_gain(address: int) -> None:
            # Register first: the predictor insert may trigger an
            # Exact downgrade of *another* line, and must observe a
            # consistent index.
            supplier_gain(cmp_id, core, address)
            predictor_insert(address)

        return on_gain

    def _make_added_handler(self, core, registry):
        cmp_id = self.cmp_id
        line_added = registry.line_added
        return lambda address: line_added(cmp_id, core, address)

    def _make_removed_handler(self, core, registry):
        cmp_id = self.cmp_id
        line_removed = registry.line_removed
        return lambda address: line_removed(cmp_id, core, address)

    # ------------------------------------------------------------------
    # Locality / snoop queries

    def supplier_core(self, address: int) -> Optional[int]:
        """Core whose cache holds ``address`` in a supplier state."""
        for core, cache in enumerate(self.caches):
            if cache.state_of(address).supplier:
                return core
        return None

    def has_supplier(self, address: int) -> bool:
        return self.supplier_core(address) is not None

    def local_master_core(self, address: int) -> Optional[int]:
        """Core whose cache can supply ``address`` within this CMP."""
        for core, cache in enumerate(self.caches):
            if cache.state_of(address).local_master:
                return core
        return None

    def holders(self, address: int) -> List[int]:
        """Cores holding any valid copy of ``address``."""
        return [
            core
            for core, cache in enumerate(self.caches)
            if address in cache
        ]

    def supplier_line(self, address: int) -> Optional[Tuple[int, CacheLine]]:
        """(core, line) for the supplier copy, if present."""
        core = self.supplier_core(address)
        if core is None:
            return None
        line = self.caches[core].lookup(address, touch=False)
        assert line is not None
        return core, line

    # ------------------------------------------------------------------
    # State mutation helpers (used by the system simulator)

    def invalidate_all(self, address: int) -> int:
        """Invalidate every copy in this CMP; returns copies removed.

        Predictor entries are removed automatically through the
        cache's state-loss callback.
        """
        removed = 0
        for cache in self.caches:
            if cache.invalidate(address) is not None:
                removed += 1
        return removed

    def find_downgrade_victim(self, address: int) -> Optional[int]:
        """Core holding ``address`` in a supplier state, for the Exact
        predictor's conflict downgrade."""
        return self.supplier_core(address)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.predictor, ExactPredictor)
