"""Transaction lifecycle subsystem: issue, collision, squash, retry,
MSHR waiters, retirement, and write serialization.

Interface contract
==================

:class:`TransactionManager` owns every coherence access from the
moment a core issues it until it retires:

* **Inbound** (called by the facade and the event engine): ``start()``
  seeds the per-core issue events; the per-core issue callbacks replay
  each core's trace.
* **Inbound** (called by :class:`~repro.sim.walker.RingWalker` and
  :class:`~repro.sim.datapath.DataPathModel`): ``retire``, ``retry``,
  ``complete_access``, ``allocate_write_version``,
  ``note_write_completed`` and ``check_version`` - the transaction- and
  version-bookkeeping side of walk completion and data delivery.
* **Outbound**: hands freshly issued ring transactions to the walker
  (``forward_request`` / ``make_step_handler``) and cache fills to the
  data path (``fill``).

State owned here: the active-transaction map (per line), the
transaction/write sequence counters, the per-line last-completed-write
versions, and the MSHR waiter lists hanging off each
:class:`Transaction`.

All state is process-local and single-threaded; methods must only be
invoked from event-engine callbacks (or before ``engine.run``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.coherence.protocol import (
    local_reader_state,
    supplier_next_state_on_read,
)
from repro.coherence.states import LineState, SUPPLIER_STATES
from repro.obs.trace import EventType, TraceEvent, TraceSink
from repro.ring.messages import RingMessage, SnoopKind
from repro.sim.processor import Core
from repro.workloads.trace import Access

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.config import MachineConfig
    from repro.metrics.stats import RunStats
    from repro.ring.node import CMPNode
    from repro.ring.topology import SnoopTopology
    from repro.sim.datapath import DataPathModel
    from repro.sim.engine import EventEngine
    from repro.sim.system import RingMultiprocessor
    from repro.sim.walker import RingWalker
    from repro.sim.warmup import WarmupController


class Transaction:
    """One in-flight ring coherence transaction.

    A ``__slots__`` class: one instance per ring transaction, with the
    message and the per-transaction step callback (``step_cb``) bound
    once at issue so the walk schedules no per-hop closures.  ``msg``
    is set in ``__init__`` and only becomes ``None`` at retirement.
    """

    __slots__ = (
        "txn_id",
        "kind",
        "address",
        "requester_cmp",
        "core",
        "issue_time",
        "msg",
        "needs_data",
        "write_version",
        "expected_version",
        "data_arrival",
        "supplied_version",
        "supplier_cmp",
        "prefetch_initiated",
        "waiters",
        "retry_count",
        "retired",
        "next_node",
        "path",
        "step_cb",
    )

    msg: Optional[RingMessage]

    def __init__(
        self,
        txn_id: int,
        kind: SnoopKind,
        address: int,
        requester_cmp: int,
        core: Core,
        issue_time: int,
        msg: RingMessage,
        expected_version: int = 0,
    ) -> None:
        self.txn_id = txn_id
        self.kind = kind
        self.address = address
        self.requester_cmp = requester_cmp
        self.core = core
        self.issue_time = issue_time
        self.msg = msg
        self.needs_data = True
        self.write_version = 0
        self.expected_version = expected_version
        self.data_arrival: Optional[int] = None
        self.supplied_version = 0
        self.supplier_cmp: Optional[int] = None
        self.prefetch_initiated = False
        self.waiters: List[Core] = []
        #: requester's retry count for the current access, snapshotted
        #: at issue (the ``retries`` field of the decision context the
        #: walker builds at each read hop)
        self.retry_count = 0
        self.retired = False
        #: node the next scheduled walk event processes (primed with
        #: the topology's first route stop at issue, then maintained by
        #: the walk loop right before scheduling ``step_cb``)
        self.next_node = -1
        #: nodes visited so far, tracked only for topologies with
        #: path-dependent routing (None on the table-exporting builtins)
        self.path: Optional[List[int]] = None
        self.step_cb: Callable[[], None] = _noop

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Transaction(txn_id=%d, kind=%s, address=%#x, cmp=%d)" % (
            self.txn_id,
            self.kind,
            self.address,
            self.requester_cmp,
        )


def _noop() -> None:  # placeholder step callback before the walk starts
    return None


class TransactionManager:
    """Issue/collision/squash/retry/MSHR lifecycle (see module doc)."""

    def __init__(
        self,
        engine: "EventEngine",
        config: "MachineConfig",
        topology: "SnoopTopology",
        stats: "RunStats",
        nodes: List["CMPNode"],
        cores: List[Core],
        trace: Optional[TraceSink] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.topology = topology
        self.stats = stats
        self.nodes = nodes
        self.cores = cores
        # Observability: None when tracing is off, so every emission
        # site below costs one attribute load plus an identity test.
        self._trace = trace
        # One reusable issue callback per core (indexed by core_id), so
        # completing an access does not allocate a fresh closure for
        # the next one.
        self._issue_cbs: List[Callable[[], None]] = [
            self._make_issue_handler(core) for core in cores
        ]
        self._active: Dict[int, List[Transaction]] = {}
        # Requester criticality: squash/retry cycles survived by each
        # core's *current* access (reset when a fresh access issues,
        # bumped on every retry).  Snapshotted onto the transaction at
        # ring issue for the walker's decision context.
        self._core_retries: List[int] = [0] * len(cores)
        self._txn_seq = 0
        self._write_counter = 0
        self.last_completed_write: Dict[int, int] = {}
        # Warmup window mirror (rebound by the WarmupController so the
        # per-access check below stays a plain attribute read).
        self._completed_accesses = 0
        self._warmup_target = 0
        self._in_warmup = False

    def wire(
        self,
        walker: "RingWalker",
        datapath: "DataPathModel",
        warmup: "WarmupController",
        system: "RingMultiprocessor",
    ) -> None:
        """Bind the collaborating subsystems (called once by the
        facade, before any event fires)."""
        self._walker = walker
        self._datapath = datapath
        self._warmup = warmup
        self._system = system
        self._warmup_target = warmup.warmup_target
        self._in_warmup = warmup.in_warmup

    def unwire(self) -> None:
        """Drop the links :meth:`wire` made, the per-core issue
        callbacks that close over this manager, and the step callbacks
        of transactions a stopped run left in flight, once the machine
        has run."""
        del self._walker, self._datapath, self._warmup, self._system
        self._issue_cbs = []
        for txns in self._active.values():
            for txn in txns:
                txn.step_cb = _noop

    def on_warmup_end(self, stats: "RunStats") -> None:
        """Warmup reset notification: measurement restarts on ``stats``."""
        self.stats = stats
        self._in_warmup = False

    # ==================================================================
    # Core replay

    def start(self) -> None:
        """Schedule every core's first access (or mark idle cores
        finished at time 0)."""
        for core in self.cores:
            if not core.done:
                self.engine.call_after(
                    core.current_access.think_time,
                    self._issue_cbs[core.core_id],
                )
            else:
                core.finish_time = 0

    def _make_issue_handler(self, core: Core) -> Callable[[], None]:
        return lambda: self._issue_access(core)

    def _issue_access(self, core: Core) -> None:
        access = core.current_access
        self._core_retries[core.core_id] = 0
        core.block(self.engine.now)
        if access.is_write:
            self.handle_write(core, access)
        else:
            self.handle_read(core, access)

    def complete_access(self, core: Core, at_time: int) -> None:
        core.unblock(at_time)
        core.advance()
        self._completed_accesses += 1
        if self._in_warmup and self._completed_accesses >= self._warmup_target:
            self._warmup.end_warmup()
        if core.done:
            core.finish_time = at_time
            return
        next_access = core.current_access
        now = self.engine.now
        if at_time < now:
            at_time = now
        self.engine.call_at(
            at_time + next_access.think_time,
            self._issue_cbs[core.core_id],
        )

    # ==================================================================
    # Reads

    def handle_read(self, core: Core, access: Access) -> None:
        self.stats.reads += 1
        address = access.address
        node = self.nodes[core.cmp_id]
        own = node.caches[core.local_id]

        line = own.lookup(address)
        if line is not None:
            self.stats.read_hits_local_cache += 1
            self.check_version(address, line.version, at_issue=True)
            self.complete_access(
                core, self.engine.now + self.config.cache.hit_latency
            )
            return

        master_core = node.local_master_core(address)
        if master_core is not None:
            master_cache = node.caches[master_core]
            master_line = master_cache.lookup(address)
            assert master_line is not None
            self.stats.read_hits_local_master += 1
            if master_line.state in SUPPLIER_STATES:
                # A dirty or exclusive master now shares the line:
                # D becomes T, E becomes SG (SG and T are unchanged),
                # exactly as when supplying a ring read.
                master_cache.set_state(
                    address,
                    supplier_next_state_on_read(master_line.state),
                )
            self._datapath.fill(
                core, address, local_reader_state(), master_line.version
            )
            self.check_version(address, master_line.version, at_issue=True)
            self.complete_access(
                core,
                self.engine.now + self.config.cache.local_master_latency,
            )
            return

        self.start_ring_transaction(core, address, SnoopKind.READ)

    # ==================================================================
    # Writes

    def handle_write(self, core: Core, access: Access) -> None:
        self.stats.writes += 1
        address = access.address
        node = self.nodes[core.cmp_id]
        own = node.caches[core.local_id]
        state = own.state_of(address)

        if state in (LineState.E, LineState.D):
            # Silent upgrade: exclusive ownership already held.
            self.stats.write_hits_exclusive += 1
            version = self.allocate_write_version()
            own.set_state(address, LineState.D)
            resident = own.lookup(address)
            assert resident is not None
            resident.version = version
            done = self.engine.now + self.config.cache.hit_latency
            self.note_write_completed(address, version, done)
            self.complete_access(core, done)
            return

        self.start_ring_transaction(core, address, SnoopKind.WRITE)

    def allocate_write_version(self) -> int:
        """Next write version; allocation order IS the global write
        serialization order."""
        self._write_counter += 1
        return self._write_counter

    # ==================================================================
    # Ring transaction issue

    def start_ring_transaction(
        self, core: Core, address: int, kind: SnoopKind
    ) -> None:
        now = self.engine.now
        active_list = self._active.get(address)
        squashed = False
        if active_list:
            for txn in active_list:
                if txn.requester_cmp == core.cmp_id:
                    position = len(txn.waiters)
                    txn.waiters.append(core)
                    self.stats.mshr_queued += 1
                    trace = self._trace
                    if trace is not None:
                        trace.emit(
                            TraceEvent(
                                now,
                                EventType.MSHR,
                                txn.txn_id,
                                core.cmp_id,
                                address,
                                {
                                    "phase": "wait",
                                    "core": core.core_id,
                                    "position": position,
                                },
                            )
                        )
                    return
            # A write-involving overlap on the same line from another
            # CMP is a collision; the younger message is squashed and
            # retried (Section 2.1.4).  Already-squashed messages are
            # ignored: they circulate for serialization only and must
            # never squash others, or two retrying requesters would
            # livelock each other.  Concurrent *reads* proceed - the
            # memory-race between two reads that both miss all caches
            # is reconciled at data-delivery time.
            squashed = any(
                t.msg is not None
                and not t.msg.squashed
                and (kind is SnoopKind.WRITE or t.kind is SnoopKind.WRITE)
                for t in active_list
            )

        self._txn_seq += 1
        txn = Transaction(
            txn_id=self._txn_seq,
            kind=kind,
            address=address,
            requester_cmp=core.cmp_id,
            core=core,
            issue_time=now,
            msg=RingMessage(
                self._txn_seq,
                kind,
                address,
                core.cmp_id,
                request_time=now,
                squashed=squashed,
            ),
            expected_version=self.last_completed_write.get(address, 0),
        )
        txn.retry_count = self._core_retries[core.core_id]
        if kind is SnoopKind.WRITE:
            # Data for the write can come from the writer's own copy
            # or from any valid copy in the CMP (supplied over the CMP
            # bus); only a CMP-wide miss needs data from the ring or
            # memory.  The version is allocated at commit time so that
            # write serialization order matches commit order.
            txn.needs_data = not self.nodes[core.cmp_id].holders(address)
        # Prime the walk with the topology's first route stop (the
        # walk loop re-derives it per hop; this replaces the old -1
        # sentinel with the node the request actually heads for).
        txn.next_node = self.topology.route(core.cmp_id, ())
        txn.step_cb = self._walker.make_step_handler(txn)
        self._active.setdefault(address, []).append(txn)

        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    now,
                    EventType.ISSUE,
                    txn.txn_id,
                    core.cmp_id,
                    address,
                    {
                        "kind": kind.value,
                        "core": core.core_id,
                        "squashed": squashed,
                        "retries": txn.retry_count,
                    },
                )
            )

        if not squashed:
            if kind is SnoopKind.READ:
                self.stats.read_ring_transactions += 1
            else:
                self.stats.write_ring_transactions += 1

        self._walker.forward_request(txn, core.cmp_id, now)

    # ==================================================================
    # Retirement, retries, MSHR waiters

    def retire(self, txn: Transaction) -> None:
        if txn.retired:
            return
        txn.retired = True
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    self.engine.now,
                    EventType.RETIRE,
                    txn.txn_id,
                    txn.requester_cmp,
                    txn.address,
                    {
                        "kind": txn.kind.value,
                        "squashed": txn.msg is not None and txn.msg.squashed,
                    },
                )
            )
        active_list = self._active.get(txn.address)
        if active_list and txn in active_list:
            active_list.remove(txn)
            if not active_list:
                del self._active[txn.address]
        if self.config.check_invariants:
            self._system._check_line_invariants(txn.address)
        # The walk is over and nothing reads the message after
        # retirement.  Dropping the step callback, which closes over
        # the transaction, lets reference counting free a retired one.
        txn.msg = None
        txn.step_cb = _noop
        waiters, txn.waiters = txn.waiters, []
        for position, waiter in enumerate(waiters):
            if trace is not None:
                trace.emit(
                    TraceEvent(
                        self.engine.now,
                        EventType.MSHR,
                        txn.txn_id,
                        txn.requester_cmp,
                        txn.address,
                        {
                            "phase": "reissue",
                            "core": waiter.core_id,
                            "position": position,
                        },
                    )
                )
            self.engine.call_after(0, self._make_reissue_handler(waiter))

    def _make_reissue_handler(self, core: Core) -> Callable[[], None]:
        def reissue() -> None:
            access = core.current_access
            if access.is_write:
                self._handle_write_reissue(core, access)
            else:
                self._handle_read_reissue(core, access)

        return reissue

    def _handle_read_reissue(self, core: Core, access: Access) -> None:
        # Identical to handle_read but without re-counting the access.
        self.stats.reads -= 1
        self.handle_read(core, access)

    def _handle_write_reissue(self, core: Core, access: Access) -> None:
        self.stats.writes -= 1
        self.handle_write(core, access)

    def retry(self, txn: Transaction) -> None:
        self.stats.retries += 1
        self._core_retries[txn.core.core_id] += 1
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    self.engine.now,
                    EventType.RETRY,
                    txn.txn_id,
                    txn.requester_cmp,
                    txn.address,
                    {},
                )
            )
        core = txn.core
        access = core.current_access
        if access.is_write:
            self._handle_write_reissue(core, access)
        else:
            self._handle_read_reissue(core, access)

    # ==================================================================
    # Introspection

    def inflight(self) -> int:
        """In-flight ring transactions right now (the timeline's
        ring-occupancy sample)."""
        return sum(len(txns) for txns in self._active.values())

    # ==================================================================
    # Write/version bookkeeping

    def note_write_completed(
        self, address: int, version: int, at_time: int
    ) -> None:
        if version > self.last_completed_write.get(address, 0):
            self.last_completed_write[address] = version

    def check_version(
        self,
        address: int,
        obtained: int,
        txn: Optional[Transaction] = None,
        at_issue: bool = False,
    ) -> None:
        if not self.config.track_versions:
            return
        if txn is not None:
            expected = txn.expected_version
        else:
            expected = self.last_completed_write.get(address, 0)
        if obtained < expected:
            self.stats.version_violations += 1
