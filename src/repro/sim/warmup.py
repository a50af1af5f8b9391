"""Warmup subsystem: prewarm installation and the warmup-window reset.

Interface contract
==================

:class:`WarmupController` owns the two mechanisms that separate cache
training from measurement:

* **Prewarm** (``apply_prewarm``, called once by the facade at
  construction): installs the workload's prewarm image from
  :mod:`repro.sim.prewarm`, the one prewarm walk both cores share.
  Images are memoized there, keyed on the prewarm lines' content and
  the cache geometry, so a harness simulating one workload under
  several algorithms, predictors, think scales or cores pays the walk
  once.  Exact-predictor images are derived from the stored walk for
  each construction and never stored.
* **Warmup-window reset** (``end_warmup``, called by the
  :class:`~repro.sim.transactions.TransactionManager` when the
  completed-access threshold is crossed): builds fresh ``RunStats``
  and ``EnergyModel`` objects, zeroes the predictor/presence/memory
  counters, and asks the facade to broadcast the new measurement
  objects to every subsystem (``rebind_measurement``), which also
  un-suspends the walker's hop batching.

State owned here: ``warmup_target`` / ``in_warmup`` /
``warmup_end_time`` (the facade and the other subsystems read these
at wiring time).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.coherence.states import LineState
from repro.energy.model import EnergyModel
from repro.metrics.stats import RunStats
from repro.sim.prewarm import E, SL, prewarm_image

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.config import MachineConfig
    from repro.core.presence import PresencePredictor
    from repro.ring.node import CMPNode
    from repro.sim.engine import EventEngine
    from repro.sim.memory import MainMemory
    from repro.sim.processor import Core
    from repro.sim.system import RingMultiprocessor
    from repro.workloads.source import WorkloadSource


class WarmupController:
    """Prewarm installation and the warmup-window measurement reset."""

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

    def unwire(self) -> None:
        """Drop the facade link :meth:`wire` made, once the machine has
        run."""
        del self._system

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
        """Install the workload's prewarm image (see
        :mod:`repro.sim.prewarm`): per-set content the caches build on
        first touch, the fill/eviction counters, the supplier/holder
        indexes and the trained predictors.

        Presence filters (the write-filter extension) are trained from
        the resident lines: a counting Bloom filter's counters depend
        only on what is resident, and every fill and eviction of the
        walk counted one update.  An Exact image's downgrades are
        charged through :meth:`DataPathModel.record_downgrades`, which
        also emits their t=0 ``DOWNGRADE`` trace events.
        """
        image = prewarm_image(self.workload, self.config)
        if image is None:
            return
        states = {E: LineState.E, SL: LineState.SL}
        for index, core in enumerate(self.cores):
            cache = self.nodes[core.cmp_id].caches[core.local_id]
            sets = image.sets[index]
            cache.install(sets, states, LineState.E)
            cache.fills += image.fills[index]
            cache.evictions += image.evictions[index]
            if self.presence:
                presence = self.presence[core.cmp_id]
                add = presence.filter.add
                for addresses, _ in sets.values():
                    for address in addresses:
                        add(address)
                presence.updates += image.fills[index] + image.evictions[index]
        self._holder_count.update(image.holder_count)
        self._supplier_of.update(image.supplier_of)
        image.train(
            [node.predictor for node in self.nodes], self.config.predictor
        )
        datapath = self._system.datapath
        for cmp_id, addresses in enumerate(image.downgrades):
            datapath.record_downgrades(cmp_id, addresses)
