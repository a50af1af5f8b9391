"""Data-path subsystem: torus data replies and home-memory timing.

Interface contract
==================

:class:`DataPathModel` owns everything that happens after the ring
walk has located (or failed to locate) a supplier: the data line's
trip over the topology's data network (the point-to-point torus on
the flat ring, hierarchical data rings on ``hier_ring`` - the model
only consumes :meth:`~repro.ring.topology.SnoopTopology.transfer_latency`),
home-memory reads (with the prefetch-heuristic latency hiding), write
commit, cache fills with eviction/writeback accounting, and the Exact
predictor's downgrade bookkeeping.

* **Inbound** (called by the :class:`~repro.sim.walker.RingWalker`):
  ``supply_read`` / ``capture_write_supply`` when a snoop hits the
  supplier, and ``read_done`` / ``write_done`` when the message
  returns to the requester.
* **Inbound** (called by the
  :class:`~repro.sim.transactions.TransactionManager` and the facade):
  ``fill`` installs a line in a requester cache, handling the evicted
  victim; ``make_downgrade_handler`` builds the per-CMP callback the
  Exact predictor invokes on replacement-driven downgrades, and
  ``record_downgrade`` charges one (the
  :class:`~repro.sim.warmup.WarmupController` charges a prewarm
  image's downgrades through ``record_downgrades``).
* **Outbound**: completion flows back to the
  :class:`~repro.sim.transactions.TransactionManager`
  (``complete_access``, ``retire``, ``check_version``,
  ``note_write_completed``, ``allocate_write_version``).

State owned here: the ``_downgraded`` address set (lines the Exact
predictor downgraded, consumed by the memory-read accounting) and
references to the machine-wide supplier/holder indexes (shared by
object identity with the facade, which mutates them through the
LineRegistry hooks).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.coherence.protocol import (
    downgrade_state,
    requester_state_from_cache,
    requester_state_from_memory,
    supplier_next_state_on_read,
    writer_state,
)
from repro.obs.trace import NO_TXN, EventType, TraceEvent, TraceSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.coherence.cache import EvictionRecord
    from repro.coherence.states import LineState
    from repro.energy.model import EnergyModel
    from repro.metrics.stats import RunStats
    from repro.ring.node import CMPNode
    from repro.ring.topology import SnoopTopology
    from repro.sim.engine import EventEngine
    from repro.sim.memory import MainMemory
    from repro.sim.processor import Core
    from repro.sim.transactions import Transaction, TransactionManager
    from repro.sim.warmup import WarmupController


class DataPathModel:
    """Torus data-reply, home-memory and fill/eviction timing."""

    def __init__(
        self,
        engine: "EventEngine",
        nodes: List["CMPNode"],
        memory: "MainMemory",
        topology: "SnoopTopology",
        stats: "RunStats",
        energy: "EnergyModel",
        supplier_of: Dict[int, Tuple[int, int]],
        holder_count: Dict[int, int],
        trace: Optional[TraceSink] = None,
    ) -> None:
        self.engine = engine
        self.nodes = nodes
        self.memory = memory
        self.topology = topology
        self.stats = stats
        self.energy = energy
        self._supplier_of = supplier_of
        self._holder_count = holder_count
        self._downgraded: Set[int] = set()
        # None when tracing is off, so every emission site below costs
        # one attribute load plus an identity test.
        self._trace = trace

    def wire(
        self, txns: "TransactionManager", warmup: "WarmupController"
    ) -> None:
        """Bind the collaborating subsystems (called once by the
        facade, before any event fires)."""
        self._txns = txns

    def unwire(self) -> None:
        """Drop the link :meth:`wire` made, once the machine has run."""
        del self._txns

    def on_warmup_end(self, stats: "RunStats", energy: "EnergyModel") -> None:
        """Warmup reset notification: measurement restarts on the new
        stats/energy objects."""
        self.stats = stats
        self.energy = energy

    # ------------------------------------------------------------------
    # Supplier data replies

    def supply_read(
        self, txn: "Transaction", node_id: int, snoop_done: int
    ) -> None:
        node = self.nodes[node_id]
        found = node.supplier_line(txn.address)
        assert found is not None, "supplier vanished mid-transaction"
        supplier_core, line = found
        next_state = supplier_next_state_on_read(line.state)
        node.caches[supplier_core].set_state(txn.address, next_state)

        txn.supplier_cmp = node_id
        txn.supplied_version = line.version
        data_arrival = snoop_done + self.topology.transfer_latency(
            node_id, txn.requester_cmp
        )
        txn.data_arrival = data_arrival
        self.stats.reads_supplied_by_cache += 1
        self.stats.supplier_latency_sum += snoop_done - txn.issue_time
        self.stats.supplier_latency_count += 1
        trace = self._trace
        if trace is not None:
            msg = txn.msg
            trace.emit(
                TraceEvent(
                    snoop_done,
                    EventType.SUPPLY,
                    txn.txn_id,
                    node_id,
                    txn.address,
                    {
                        "kind": "read",
                        "form": (
                            "combined"
                            if msg is not None and msg.satisfied
                            else "reply"
                        ),
                        "version": line.version,
                        "data_arrival": data_arrival,
                    },
                )
            )
        self.engine.call_at(
            data_arrival, lambda: self._deliver_read_data(txn)
        )

    def capture_write_supply(
        self, txn: "Transaction", node_id: int, snoop_done: int
    ) -> None:
        """A write walk snooped the supplier and the writer's CMP has
        no copy: the data line travels the torus to the requester."""
        found = self.nodes[node_id].supplier_line(txn.address)
        assert found is not None
        _, line = found
        txn.supplied_version = line.version
        txn.supplier_cmp = node_id
        txn.data_arrival = snoop_done + self.topology.transfer_latency(
            node_id, txn.requester_cmp
        )
        self.stats.writes_supplied_by_cache += 1
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    snoop_done,
                    EventType.SUPPLY,
                    txn.txn_id,
                    node_id,
                    txn.address,
                    {
                        "kind": "write",
                        "form": "reply",
                        "version": line.version,
                        "data_arrival": txn.data_arrival,
                    },
                )
            )

    def _deliver_read_data(self, txn: "Transaction") -> None:
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    self.engine.now,
                    EventType.FILL,
                    txn.txn_id,
                    txn.requester_cmp,
                    txn.address,
                    {"source": "cache", "version": txn.supplied_version},
                )
            )
        self.fill(
            txn.core,
            txn.address,
            requester_state_from_cache(),
            txn.supplied_version,
        )
        self._txns.check_version(txn.address, txn.supplied_version, txn=txn)
        self._record_read_latency(txn)
        self._txns.complete_access(txn.core, self.engine.now)

    # ------------------------------------------------------------------
    # Walk completion

    def read_done(self, txn: "Transaction", info_time: int) -> None:
        msg = txn.msg
        assert msg is not None
        if msg.satisfied or msg.satisfied_reply:
            # Data delivery is already scheduled; retire once both the
            # reply has returned and the data has arrived.
            assert txn.data_arrival is not None
            retire_at = max(info_time, txn.data_arrival)
            if retire_at > self.engine.now:
                self.engine.call_at(
                    retire_at, lambda: self._txns.retire(txn)
                )
            else:
                self._txns.retire(txn)
            return

        # Negative response: fetch from the home memory.
        address = txn.address
        latency = self.memory.read_latency(
            txn.requester_cmp, address, txn.prefetch_initiated
        )
        if (
            txn.prefetch_initiated
            and self.memory.home_of(address) != txn.requester_cmp
        ):
            self.stats.reads_prefetched += 1
        self.stats.reads_supplied_by_memory += 1

        if address in self._downgraded:
            # The Exact predictor downgraded this line; had it not, a
            # cache could have supplied it.  Charge the re-read.
            if self._any_holder(address):
                self.energy.charge_downgrade_reread()
                self.stats.downgrade_rereads += 1
            self._downgraded.discard(address)

        data_arrival = info_time + latency
        txn.data_arrival = data_arrival
        self.engine.call_at(
            data_arrival, lambda: self._deliver_memory_data(txn)
        )

    def _deliver_memory_data(self, txn: "Transaction") -> None:
        address = txn.address
        # Reconcile with the global state *now*: a concurrent read from
        # another CMP may have installed a supplier after our walk
        # passed it (both walks found no supplier and both went to
        # memory).  In that case we take the shared role, keeping the
        # single-supplier invariant; the racing supplier can only be
        # clean (a write would have squashed this read), so memory's
        # data is current.
        supplier = self._find_global_supplier(address)
        if supplier is not None:
            node_id, core_id = supplier
            cache = self.nodes[node_id].caches[core_id]
            line = cache.lookup(address, touch=False)
            assert line is not None
            cache.set_state(
                address, supplier_next_state_on_read(line.state)
            )
            version = line.version
            state = requester_state_from_cache()
        else:
            version = self.memory.read(address)
            state = requester_state_from_memory(self._any_holder(address))
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    self.engine.now,
                    EventType.FILL,
                    txn.txn_id,
                    txn.requester_cmp,
                    address,
                    {
                        "source": (
                            "cache" if supplier is not None else "memory"
                        ),
                        "version": version,
                    },
                )
            )
        self.fill(txn.core, address, state, version)
        self._txns.check_version(address, version, txn=txn)
        self._record_read_latency(txn)
        self._txns.complete_access(txn.core, self.engine.now)
        self._txns.retire(txn)

    def write_done(self, txn: "Transaction", info_time: int) -> None:
        address = txn.address
        if txn.needs_data:
            if txn.data_arrival is not None:
                complete_at = max(info_time, txn.data_arrival)
            else:
                latency = self.memory.read_latency(
                    txn.requester_cmp, address, txn.prefetch_initiated
                )
                self.memory.read(address)
                self.stats.writes_supplied_by_memory += 1
                complete_at = info_time + latency
        else:
            complete_at = info_time

        if complete_at > self.engine.now:
            self.engine.call_at(
                complete_at, lambda: self._commit_write(txn, complete_at)
            )
        else:
            self._commit_write(txn, complete_at)

    def _commit_write(self, txn: "Transaction", at_time: int) -> None:
        core = txn.core
        address = txn.address
        node = self.nodes[core.cmp_id]
        # The version is allocated here, at commit, so that it is
        # consistent with the global serialization order of writes
        # (an owner's silent write that slipped in while this
        # transaction was in flight must order before it).
        txn.write_version = self._txns.allocate_write_version()
        # Local copies (including the writer's own old copy) are
        # invalidated on the CMP bus, then the writer installs the
        # dirty line.
        node.invalidate_all(address)
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    at_time,
                    EventType.FILL,
                    txn.txn_id,
                    core.cmp_id,
                    address,
                    {"source": "write", "version": txn.write_version},
                )
            )
        self.fill(core, address, writer_state(), txn.write_version)
        self._txns.note_write_completed(address, txn.write_version, at_time)
        self._txns.complete_access(core, at_time)
        self._txns.retire(txn)

    # ------------------------------------------------------------------
    # Cache mutation helpers

    def fill(
        self, core: "Core", address: int, state: "LineState", version: int
    ) -> None:
        cache = self.nodes[core.cmp_id].caches[core.local_id]
        victim = cache.fill(address, state, version)
        if victim is not None:
            self._handle_eviction(victim)

    def _handle_eviction(self, victim: "EvictionRecord") -> None:
        self.stats.dirty_evictions += victim.dirty
        if victim.dirty:
            self.memory.writeback(victim.address, victim.version)
            self.stats.writebacks += 1

    def make_downgrade_handler(self, cmp_id: int) -> Callable[[int], None]:
        def downgrade(address: int) -> None:
            node = self.nodes[cmp_id]
            core = node.find_downgrade_victim(address)
            if core is None:
                return
            cache = node.caches[core]
            line = cache.lookup(address, touch=False)
            assert line is not None
            new_state, needs_writeback = downgrade_state(line.state)
            if needs_writeback:
                self.memory.writeback(address, line.version)
                self.stats.downgrade_writebacks += 1
                self.energy.charge_downgrade_writeback()
            cache.set_state(address, new_state)
            self.record_downgrade(cmp_id, address, needs_writeback)

        return downgrade

    def record_downgrade(
        self, cmp_id: int, address: int, writeback: bool
    ) -> None:
        """Count and charge one Exact downgrade, after its state
        change (and any writeback)."""
        self.stats.downgrades += 1
        self.energy.charge_downgrade()
        self._downgraded.add(address)
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    self.engine.now,
                    EventType.DOWNGRADE,
                    NO_TXN,
                    cmp_id,
                    address,
                    {"writeback": writeback},
                )
            )

    def record_downgrades(
        self, cmp_id: int, addresses: Sequence[int]
    ) -> None:
        """:meth:`record_downgrade` for each of ``addresses`` in order,
        none with a writeback (a prewarm image's downgrades)."""
        if self._trace is not None:
            for address in addresses:
                self.record_downgrade(cmp_id, address, False)
            return
        self.stats.downgrades += len(addresses)
        self.energy.charge_downgrades(len(addresses))
        self._downgraded.update(addresses)

    # ------------------------------------------------------------------
    # Bookkeeping helpers

    def _any_holder(self, address: int) -> bool:
        return self._holder_count.get(address, 0) > 0

    def _find_global_supplier(
        self, address: int
    ) -> Optional[Tuple[int, int]]:
        """(cmp, core) of the machine-wide supplier copy, if any."""
        return self._supplier_of.get(address)

    def _record_read_latency(self, txn: "Transaction") -> None:
        assert txn.data_arrival is not None
        latency = txn.data_arrival - txn.issue_time
        self.stats.read_miss_latency_sum += latency
        self.stats.read_miss_count += 1
        self.stats.read_miss_histogram.record(latency)
