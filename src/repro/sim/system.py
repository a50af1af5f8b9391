"""Full-system simulator facade: CMP nodes, embedded ring, memory.

:class:`RingMultiprocessor` assembles the substrates into the machine
of Figure 2(a) and drives a workload trace through it under a chosen
snooping algorithm.  The ring walk of every coherence transaction is
simulated message-by-message with the exact Table 2 primitive
semantics (via :func:`repro.core.primitives.apply_primitive`), so the
snoop counts, message counts, latencies and predictor behaviour emerge
from the mechanism rather than from closed-form shortcuts.

The machine itself is four collaborating subsystems behind this
facade (see ``docs/architecture.md`` for the full picture):

* :class:`~repro.sim.transactions.TransactionManager` - issue,
  collision/squash/retry, MSHR waiters, retirement, write
  serialization.
* :class:`~repro.sim.walker.RingWalker` - the per-hop ring walk and
  Table 2 primitive application.
* :class:`~repro.sim.datapath.DataPathModel` - torus data replies,
  home-memory timing (with the prefetch heuristic), fills/evictions,
  and Exact-predictor downgrades.
* :class:`~repro.sim.warmup.WarmupController` - prewarm installation
  and the warmup-window measurement reset.

The facade owns what the subsystems share: the event engine, the
topologies and memory, the machine-wide supplier/holder indexes (fed
by the cache callbacks through :class:`LineIndex`), and the current
``RunStats`` / ``EnergyModel`` pair.  When the warmup window closes, the
:class:`WarmupController` builds fresh measurement objects and the
facade broadcasts them to every subsystem via
:meth:`rebind_measurement`, so the hot paths keep reading plain
attributes instead of indirecting through the facade per event.

Observability (``repro.obs``, see ``docs/observability.md``): when
``config.tracing.enabled`` is set (or a ``trace_sink`` is passed
explicitly), the subsystems emit typed transaction-lifecycle events
into the sink; ``config.tracing.sample_window`` additionally attaches
a :class:`~repro.obs.timeline.MetricsTimeline` that samples live
counters at a fixed simulated-time cadence.  Both are off by default
and cost nothing beyond one ``is not None`` test per emission site.

Transaction life cycle (reads):

1. A core misses in its own L2 and in its CMP's local master.
2. A snoop message is issued on the line's embedded ring.  At each
   node the Supplier Predictor is consulted and the algorithm picks a
   primitive; snoops and crossings are counted and charged.
3. If a supplier is found, it transitions per the protocol rules and
   the data line travels the torus to the requester, which may use it
   on arrival (the transaction can no longer be squashed).
4. Otherwise the negative response returns to the requester, which
   fetches the line from the home memory (prefetched if the walk
   passed the home node and the heuristic is on).

Collisions: a transaction issued on a line with an in-flight
conflicting transaction (any write involved) is squashed - it
circulates for serialization only, then retries after a back-off.
Same-CMP requests to a busy line wait in an MSHR instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.config import MachineConfig
from repro.coherence.cache import SetAssociativeCache, copies_of
from repro.coherence.protocol import CoherenceError, ProtocolTables
from repro.core.algorithms import SnoopingAlgorithm
from repro.core.predictors import PerfectPredictor
from repro.core.presence import PresencePredictor
from repro.energy.model import EnergyModel
from repro.metrics.stats import RunStats
from repro.obs.timeline import MetricsTimeline
from repro.obs.trace import TraceSink, resolve_sink
from repro.ring.node import CMPNode, LineRegistry
from repro.ring.topology import build_topology
from repro.sim.datapath import DataPathModel
from repro.sim.engine import EventEngine
from repro.sim.memory import MainMemory
from repro.sim.processor import Core, build_cores, build_cores_from_source
from repro.sim.transactions import Transaction, TransactionManager
from repro.sim.walker import RingWalker
from repro.sim.warmup import WarmupController
from repro.workloads.source import WorkloadSource, as_source
from repro.workloads.synthetic import SharingProfile
from repro.workloads.trace import WorkloadTrace

__all__ = [
    "RingMultiprocessor",
    "SimulationResult",
    "Transaction",
]


@dataclass
class SimulationResult:
    """Everything a run produces."""

    algorithm: str
    workload: str
    stats: RunStats
    energy: Dict[str, float]
    exec_time: int
    events: int
    config: MachineConfig
    #: The registry name of the core that ran (after any fallback);
    #: provenance only, so it stays out of :meth:`summary`.
    core: str

    @property
    def total_energy(self) -> float:
        return self.energy["total"]

    def summary(self) -> Dict[str, float]:
        data = self.stats.summary()
        data["energy_total"] = self.total_energy
        return data


class LineIndex(LineRegistry):
    """The machine-wide supplier and holder indexes, kept up by the
    caches' callbacks (the LineRegistry hooks), plus the presence
    filters those callbacks train.

    A separate object rather than the facade, so the caches' callbacks
    hold no reference back to the machine.
    """

    def __init__(
        self,
        supplier_of: Dict[int, Tuple[int, int]],
        holder_count: Dict[int, int],
        presence: List[PresencePredictor],
    ) -> None:
        self._supplier_of = supplier_of
        self._holder_count = holder_count
        self.presence = presence

    def supplier_gain(self, cmp_id: int, core: int, address: int) -> None:
        existing = self._supplier_of.get(address)
        if existing is not None and existing != (cmp_id, core):
            raise CoherenceError(
                "line %#x gained supplier at %s while %s still holds it"
                % (address, (cmp_id, core), existing)
            )
        self._supplier_of[address] = (cmp_id, core)

    def supplier_loss(self, cmp_id: int, core: int, address: int) -> None:
        existing = self._supplier_of.get(address)
        if existing == (cmp_id, core):
            del self._supplier_of[address]

    def line_added(self, cmp_id: int, core: int, address: int) -> None:
        self._holder_count[address] = self._holder_count.get(address, 0) + 1
        if self.presence:
            self.presence[cmp_id].line_added(address)

    def line_removed(self, cmp_id: int, core: int, address: int) -> None:
        count = self._holder_count.get(address, 0) - 1
        if count <= 0:
            self._holder_count.pop(address, None)
        else:
            self._holder_count[address] = count
        if self.presence:
            self.presence[cmp_id].line_removed(address)


class RingMultiprocessor:
    """The simulated machine.  Build it, then call :meth:`run`."""

    def __init__(
        self,
        config: MachineConfig,
        algorithm: SnoopingAlgorithm,
        workload: "Union[WorkloadTrace, WorkloadSource, SharingProfile]",
        warmup_fraction: float = 0.0,
        trace_sink: Optional[TraceSink] = None,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        # Normalize every accepted input (materialized trace, sharing
        # profile, workload source) to the source seam; streaming
        # sources feed the cores lazy iterators and are never
        # materialized on this path.
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
        # Bind the machine's *resolved* predictor kind onto the policy
        # so uses_predictor() (latency/energy charging) follows any
        # predictor override rather than the class default.
        algorithm.bind_predictor_kind(config.predictor.kind)
        self.source = source

        # Observability: a sink passed explicitly wins, and its caller
        # closes it; otherwise one is resolved through the registry
        # when config.tracing asks for it, and the run closes it.
        # ``self.trace`` is None when tracing is off - the subsystems
        # then skip every emission with one identity test.
        self._closes_trace = trace_sink is None and config.tracing.enabled
        if self._closes_trace:
            trace_sink = resolve_sink(config.tracing.sink)
        self.trace: Optional[TraceSink] = trace_sink

        self.engine = EventEngine()
        # The snoop topology is a registry component (kind "topology",
        # selected by config.topology.kind); it owns the walk order,
        # the per-segment latencies and the data network.
        self.topology = build_topology(config)
        self.memory = MainMemory(config.memory, config.num_cmps)
        self.stats = RunStats()
        self.energy = EnergyModel(config.energy, config.predictor.kind)

        # O(1) line-location indexes, kept consistent by cache
        # callbacks routed through the LineIndex hooks.  The
        # subsystems hold references to these same dict objects.
        self._supplier_of: Dict[int, Tuple[int, int]] = {}
        self._holder_count: Dict[int, int] = {}
        # Optional write-snoop filtering (extension, see
        # repro.core.presence): one presence predictor per CMP,
        # trained by the same residency callbacks.
        self.presence: List[PresencePredictor] = (
            [PresencePredictor() for _ in range(config.num_cmps)]
            if config.filter_write_snoops
            else []
        )

        lines = LineIndex(self._supplier_of, self._holder_count, self.presence)
        self.nodes: List[CMPNode] = [
            CMPNode(
                i,
                config.cores_per_cmp,
                config.cache,
                config.predictor,
                registry=lines,
            )
            for i in range(config.num_cmps)
        ]
        self.cores: List[Core] = (
            build_cores_from_source(source)
            if source.streaming
            else build_cores(
                source.materialize().traces, config.cores_per_cmp
            )
        )

        # Subsystems: construct, then wire the cross-references (they
        # are mutually recursive), then install the predictor
        # callbacks that close over subsystem state.
        self.txns = TransactionManager(
            self.engine,
            config,
            self.stats,
            self.nodes,
            self.cores,
            trace=self.trace,
        )
        self.walker = RingWalker(
            self.engine,
            config,
            self.topology,
            self.memory,
            self.stats,
            self.energy,
            self.nodes,
            algorithm,
            self._supplier_of,
            self.presence,
            trace=self.trace,
        )
        self.datapath = DataPathModel(
            self.engine,
            self.nodes,
            self.memory,
            self.topology,
            self.stats,
            self.energy,
            self._supplier_of,
            self._holder_count,
            trace=self.trace,
        )
        self.warmup = WarmupController(
            self.engine,
            config,
            source,
            self.cores,
            self.nodes,
            self.presence,
            self.memory,
            self._supplier_of,
            self._holder_count,
            warmup_fraction,
        )
        self.warmup.wire(self)
        self.txns.wire(self.walker, self.datapath, self.warmup, self)
        self.walker.wire(self.txns, self.datapath)
        self.datapath.wire(self.txns, self.warmup)

        for node in self.nodes:
            if node.is_exact:
                node.predictor.set_downgrade_callback(
                    self.datapath.make_downgrade_handler(node.cmp_id)
                )
            if isinstance(node.predictor, PerfectPredictor):
                node.predictor.set_truth(
                    self._make_supplier_truth(node.cmp_id)
                )

        # Windowed metrics timeline (simulated-time sampling of live
        # counters); independent of event tracing.  The walker is
        # wired in explicitly so the occupancy channels (link
        # utilization, snoop-port queue depth) sample its contention
        # state.
        self.timeline: Optional[MetricsTimeline] = (
            MetricsTimeline(
                self, config.tracing.sample_window, walker=self.walker
            )
            if config.tracing.sample_window > 0
            else None
        )

        #: Every cache keyed (CMP, core), in that order: the scan of
        #: the per-retire invariant check.
        self._keyed_caches: List[Tuple[Tuple[int, int], SetAssociativeCache]] = [
            ((node.cmp_id, core_idx), cache)
            for node in self.nodes
            for core_idx, cache in enumerate(node.caches)
        ]

        self._ran = False
        self.warmup.apply_prewarm()

    # ==================================================================
    # Construction helpers

    def _make_supplier_truth(self, cmp_id: int):
        supplier_of = self._supplier_of

        def truth(address: int) -> bool:
            entry = supplier_of.get(address)
            return entry is not None and entry[0] == cmp_id

        return truth

    # ==================================================================
    # Public API

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        """Replay the workload to completion and return the results."""
        if self._ran:
            raise RuntimeError("a RingMultiprocessor can only run once")
        self._ran = True
        try:
            self.txns.start()
            if self.timeline is not None:
                self.timeline.start()
            self.engine.run(max_events=max_events)
        finally:
            self._unwire()
            if self._closes_trace:
                self.trace.close()
        self._finalize_energy()
        self.stats.core_finish_times = [
            core.finish_time if core.finish_time is not None else -1
            for core in self.cores
        ]
        unfinished = [c.core_id for c in self.cores if c.finish_time is None]
        if unfinished:
            raise RuntimeError(
                "simulation ended with unfinished cores: %s" % unfinished
            )
        finish = max(self.stats.core_finish_times, default=0)
        self.stats.exec_time = max(finish - self.warmup.warmup_end_time, 0)
        # Simulator-efficiency counters: whole-run values (diagnostics
        # of the simulation itself, so they ignore the warmup reset).
        self.stats.events_scheduled = self.engine.events_scheduled
        self.stats.events_fired = self.engine.events_processed
        return SimulationResult(
            algorithm=self.algorithm.name,
            workload=self.source.name,
            stats=self.stats,
            energy=self.energy.breakdown.as_dict(),
            exec_time=self.stats.exec_time,
            events=self.engine.events_processed,
            config=self.config,
            core="object",
        )

    def _unwire(self) -> None:
        """Cut the links that make a machine a reference cycle, once it
        has run or stopped: the pending events of a stopped run, the
        subsystems' links to each other and to the facade, Exact's
        downgrade handlers (which close over the datapath) and the
        timeline's link to the facade.  Dropping the last reference to
        the machine then frees it without the cyclic collector.  Its
        state stays readable (``nodes``, ``stats``,
        ``datapath._downgraded``, ``timeline.samples``, ...)."""
        self.engine.clear()
        for node in self.nodes:
            if node.is_exact:
                node.predictor.set_downgrade_callback(None)
        self.txns.unwire()
        self.walker.unwire()
        self.datapath.unwire()
        self.warmup.unwire()
        if self.timeline is not None:
            self.timeline.detach()

    def rebind_measurement(
        self, stats: RunStats, energy: EnergyModel
    ) -> None:
        """Install fresh measurement objects on the facade and every
        subsystem (the warmup-window reset; see WarmupController)."""
        self.stats = stats
        self.energy = energy
        self.txns.on_warmup_end(stats)
        self.walker.on_warmup_end(stats, energy)
        self.datapath.on_warmup_end(stats, energy)

    def _finalize_energy(self) -> None:
        for node in self.nodes:
            self.energy.charge_predictor_lookup(node.predictor.lookups)
            self.energy.charge_predictor_update(node.predictor.updates)
        # The presence filter (write-snoop filtering extension) is a
        # Bloom structure of the Superset predictor's class; charge it
        # at the same rates.
        for presence in self.presence:
            self.energy.breakdown.predictor_lookups += (
                presence.lookups * self.config.energy.superset_lookup
            )
            self.energy.breakdown.predictor_updates += (
                presence.updates * self.config.energy.superset_update
            )

    # ==================================================================
    # Introspection helpers (shared indexes; also used by tests)

    def _cmp_has_supplier(self, cmp_id: int, address: int) -> bool:
        entry = self._supplier_of.get(address)
        return entry is not None and entry[0] == cmp_id

    def _any_holder(self, address: int) -> bool:
        return self._holder_count.get(address, 0) > 0

    def _find_global_supplier(
        self, address: int
    ) -> Optional[Tuple[int, int]]:
        """(cmp, core) of the machine-wide supplier copy, if any."""
        return self._supplier_of.get(address)

    @property
    def _last_completed_write(self) -> Dict[int, int]:
        return self.txns.last_completed_write

    def _check_version(
        self,
        address: int,
        obtained: int,
        txn: Optional[Transaction] = None,
        at_issue: bool = False,
    ) -> None:
        self.txns.check_version(address, obtained, txn=txn, at_issue=at_issue)

    def _check_line_invariants(self, address: int) -> None:
        # Every cache is scanned (the indexes are what the check must
        # not trust), with the set index computed once and prewarmed
        # sets read without building them.
        holders = copies_of(self._keyed_caches, address)
        # A single copy breaks none of the rules check_line enforces.
        if len(holders) > 1:
            ProtocolTables.check_line(holders, address)
