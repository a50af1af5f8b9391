"""Per-event energy accounting (Section 6.1.4).

The model charges the energy consumed *by the coherence machinery*:
snooping nodes other than the requester, accessing and updating the
Supplier Predictors, and transmitting request/reply messages on the
ring links.  For Exact, it additionally charges the downgrade
operations and the extra main-memory write-backs and re-reads they
cause - the paper counts these "because they are a direct result of
Exact's operation".  Baseline memory traffic (reads that would go to
memory under any algorithm) is deliberately *not* charged, matching
the paper's methodology.

The calibration constants come straight from the paper: 3.17 nJ per
ring-link message, 0.69 nJ per CMP snoop, 24 nJ per memory line
access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import EnergyConfig


@dataclass
class EnergyBreakdown:
    """Energy totals in nanojoules, by category."""

    ring_links: float = 0.0
    snoops: float = 0.0
    predictor_lookups: float = 0.0
    predictor_updates: float = 0.0
    downgrade_ops: float = 0.0
    downgrade_memory: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.ring_links
            + self.snoops
            + self.predictor_lookups
            + self.predictor_updates
            + self.downgrade_ops
            + self.downgrade_memory
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "ring_links": self.ring_links,
            "snoops": self.snoops,
            "predictor_lookups": self.predictor_lookups,
            "predictor_updates": self.predictor_updates,
            "downgrade_ops": self.downgrade_ops,
            "downgrade_memory": self.downgrade_memory,
            "total": self.total,
        }


class EnergyModel:
    """Accumulates snoop-traffic energy for one simulation run."""

    def __init__(self, config: EnergyConfig, predictor_kind: str) -> None:
        self.config = config
        self.predictor_kind = predictor_kind
        self.breakdown = EnergyBreakdown()

    # --- ring -----------------------------------------------------------

    def charge_ring_crossing(self, count: int = 1) -> None:
        """One snoop message crossing one ring link."""
        self.breakdown.ring_links += self.config.ring_link_message * count

    # --- snoops -----------------------------------------------------------

    def charge_snoop(self, count: int = 1) -> None:
        """One CMP snoop operation (all on-chip L2s snooped in
        parallel count as one operation, as in the paper)."""
        self.breakdown.snoops += self.config.cmp_snoop * count

    # --- predictor ---------------------------------------------------------

    def _lookup_cost(self) -> float:
        return {
            "subset": self.config.subset_lookup,
            "superset": self.config.superset_lookup,
            "exact": self.config.exact_lookup,
        }.get(self.predictor_kind, 0.0)

    def _update_cost(self) -> float:
        return {
            "subset": self.config.subset_update,
            "superset": self.config.superset_update,
            "exact": self.config.exact_update,
        }.get(self.predictor_kind, 0.0)

    def charge_predictor_lookup(self, count: int = 1) -> None:
        self.breakdown.predictor_lookups += self._lookup_cost() * count

    def charge_predictor_update(self, count: int = 1) -> None:
        self.breakdown.predictor_updates += self._update_cost() * count

    # --- Exact's downgrade costs --------------------------------------------

    def charge_downgrade(self) -> None:
        """Cache access that downgrades a line (Section 4.3.3)."""
        self.breakdown.downgrade_ops += self.config.downgrade_cache_access

    def charge_downgrades(self, count: int) -> None:
        """``count`` calls of :meth:`charge_downgrade`: the same float
        additions, in one loop."""
        cost = self.config.downgrade_cache_access
        total = self.breakdown.downgrade_ops
        for _ in range(count):
            total += cost
        self.breakdown.downgrade_ops = total

    def charge_downgrade_writeback(self) -> None:
        """Write-back of a D/T line forced by a downgrade."""
        self.breakdown.downgrade_memory += self.config.memory_line_access

    def charge_downgrade_reread(self) -> None:
        """Memory re-read of a line that a cache would have supplied
        had it not been downgraded."""
        self.breakdown.downgrade_memory += self.config.memory_line_access

    @property
    def total(self) -> float:
        return self.breakdown.total
