"""Ring-walk subsystem: per-hop processing of snoop messages.

Interface contract
==================

:class:`RingWalker` drives a :class:`~repro.sim.transactions.Transaction`'s
message around its embedded ring, applying the exact Table 2
primitive semantics at every node:

* **Inbound** (called by the
  :class:`~repro.sim.transactions.TransactionManager` at issue time):
  ``make_step_handler`` binds the transaction's single reusable walk
  callback; ``forward_request`` launches (and later continues) the
  walk from a node at a departure time.
* **Inbound** (called by the event engine): the per-transaction step
  callback, which lands in ``walk_from``.
* **Outbound**: supplier hits hand data scheduling to the
  :class:`~repro.sim.datapath.DataPathModel` (``supply_read`` /
  ``capture_write_supply``); a completed circuit hands the transaction
  to the data path (``read_done`` / ``write_done``) or, when squashed,
  back to the transaction manager for its back-off retry.

State owned here: the optional link/snoop-port contention
reservations and the hot-path constants hoisted from the algorithm and
machine config.

Every ring hop is one engine event, so the walk's side effects happen
in engine order.  The walk schedules no per-hop closures: the
transaction carries one prebound callback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.coherence.protocol import CoherenceError
from repro.core.decision import DecisionContext
from repro.core.predictors import PerfectPredictor
from repro.core.primitives import Primitive, apply_primitive
from repro.obs.trace import EventType, TraceEvent, TraceSink
from repro.ring.messages import MessageMode, SnoopKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.config import MachineConfig
    from repro.core.algorithms import SnoopingAlgorithm
    from repro.core.presence import PresencePredictor
    from repro.energy.model import EnergyModel
    from repro.metrics.stats import RunStats
    from repro.ring.node import CMPNode
    from repro.ring.topology import SnoopTopology
    from repro.sim.datapath import DataPathModel
    from repro.sim.engine import EventEngine
    from repro.sim.memory import MainMemory
    from repro.sim.transactions import Transaction, TransactionManager


class RingWalker:
    """Per-hop walk and Table 2 primitive application."""

    def __init__(
        self,
        engine: "EventEngine",
        config: "MachineConfig",
        topology: "SnoopTopology",
        memory: "MainMemory",
        stats: "RunStats",
        energy: "EnergyModel",
        nodes: List["CMPNode"],
        algorithm: "SnoopingAlgorithm",
        supplier_of: Dict[int, Tuple[int, int]],
        presence: List["PresencePredictor"],
        trace: Optional[TraceSink] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.memory = memory
        self.stats = stats
        self.energy = energy
        self.nodes = nodes
        self.algorithm = algorithm
        self.presence = presence
        self._supplier_of = supplier_of
        # Observability: None when tracing is off, so every emission
        # site below costs one attribute load plus an identity test.
        self._trace = trace
        # Hot-path constants hoisted out of the per-event handlers.
        self._predictor_kind = config.predictor.kind
        self._uses_predictor = algorithm.uses_predictor()
        self._choose = algorithm.choose
        # Decision-context plumbing: a policy whose static table reads
        # only the prediction (every paper algorithm) gets one of two
        # preallocated contexts, keeping the common read hop
        # allocation-free.  A table that reads the requester's urgency
        # fields, and every table-less policy (whose choose() may read
        # any field), get a full context per decision, as on soa.
        self._ctx_needs_txn = algorithm.decision_table() is None or bool(
            set(algorithm.decision_inputs())
            & {"retries", "waiters", "ring_age"}
        )
        self._ctx_true = DecisionContext(True)
        self._ctx_false = DecisionContext(False)
        self._prefetch_on_snoop = config.memory.prefetch_on_snoop
        self._home_of = memory.home_of
        self._ring_of = topology.ring_of
        # The topology's walk rows, hoisted for the per-hop hot path
        # and indexed [requester][node]: successor, predecessor and
        # entry latency of every node on each requester's walk.
        rows = topology.export_tables()
        self._succ = [row.successor for row in rows]
        self._pred = [row.predecessor for row in rows]
        self._in_lat = [row.entry_latency for row in rows]
        # Optional contention modeling: next-free times of each
        # physical link and of each CMP's snoop port.  The topology
        # describes the physical links behind each outbound segment as
        # scoped descriptors (see ``SnoopTopology.segment_links``):
        # "ring"-scoped links are replicated per embedded ring and
        # keyed ``(ring index, link id)``; "shared"-scoped links (e.g.
        # the hier_ring global ring) are one physical resource crossed
        # by every embedded ring and keyed ``(-1, link id)``.
        self._link_free: Dict[Tuple[int, int], int] = {}
        self._snoop_port_free: List[int] = [0] * config.num_cmps
        self._ring_links: List[Tuple[int, ...]] = []
        self._shared_links: List[Tuple[int, ...]] = []
        for node in range(config.num_cmps):
            links = topology.segment_links(node)
            self._ring_links.append(
                tuple(lid for scope, lid in links if scope == "ring")
            )
            self._shared_links.append(
                tuple(lid for scope, lid in links if scope != "ring")
            )
        per_ring, shared = topology.link_counts()
        #: Physical link count across the whole machine (per-ring
        #: links exist once per embedded ring); the denominator of the
        #: timeline's link-utilization channel.
        self.total_links = per_ring * config.ring.num_rings + shared
        #: Cumulative link-reservation cycles (occupancy x links per
        #: crossing), charged when the reservation is made.  Not reset
        #: at warmup end - samplers difference it per window.
        self.link_busy_cycles = 0
        #: Cumulative snoop-port queueing delay (cycles).
        self.port_wait_cycles = 0

    def wire(
        self, txns: "TransactionManager", datapath: "DataPathModel"
    ) -> None:
        """Bind the collaborating subsystems (called once by the
        facade, before any event fires)."""
        self._txns = txns
        self._datapath = datapath

    def unwire(self) -> None:
        """Drop the links :meth:`wire` made, once the machine has run."""
        del self._txns, self._datapath

    def on_warmup_end(self, stats: "RunStats", energy: "EnergyModel") -> None:
        """Warmup reset notification: measurement restarts on the new
        stats/energy objects.

        The contention reservations are cleared along with the
        counters: link and snoop-port bookings made by warmup-era
        traffic must not delay the first measured transactions, so the
        measured phase starts from an idle interconnect exactly like a
        warmup-free run does (pinned by
        ``tests/integration/test_warmup_contention.py``).
        """
        self.stats = stats
        self.energy = energy
        self._link_free.clear()
        self._snoop_port_free = [0] * len(self._snoop_port_free)

    # ==================================================================
    # Walk driving

    def make_step_handler(self, txn: "Transaction") -> Callable[[], None]:
        """One walk callback per transaction, reused for every
        scheduled hop (``txn.next_node`` carries the target node)."""

        def step() -> None:
            self.walk_from(txn, txn.next_node, self.engine.now)

        return step

    def _cross_link(
        self, txn: "Transaction", from_node: int, departure: int
    ) -> int:
        """Reserve every physical link behind one segment crossing;
        returns the actual departure time (== requested time unless
        link contention modeling is on and a link is busy).

        The segment out of ``from_node`` may be more than one physical
        link (a hier_ring block-crossing is the local hand-off plus a
        global-ring link) and a link may be private to the message's
        embedded ring ("ring" scope) or shared by all embedded rings
        ("shared" scope, e.g. the single bridge each local ring owns
        onto the global ring).  The message departs when the last of
        its links frees up and holds all of them for ``occupancy``
        cycles.
        """
        occupancy = self.config.ring.link_occupancy
        if not occupancy:
            return departure
        ring_links = self._ring_links[from_node]
        shared_links = self._shared_links[from_node]
        ring = self._ring_of(txn.address)
        link_free = self._link_free
        actual = departure
        for lid in ring_links:
            free = link_free.get((ring, lid), 0)
            if free > actual:
                actual = free
        for lid in shared_links:
            free = link_free.get((-1, lid), 0)
            if free > actual:
                actual = free
        until = actual + occupancy
        for lid in ring_links:
            link_free[(ring, lid)] = until
        for lid in shared_links:
            link_free[(-1, lid)] = until
        self.link_busy_cycles += occupancy * (
            len(ring_links) + len(shared_links)
        )
        return actual

    def _reserve_snoop_port(self, node_id: int, ready: int) -> int:
        """Queueing delay before a snoop can start at ``node_id``."""
        if not self.config.ring.serialize_snoop_port:
            return 0
        start = max(ready, self._snoop_port_free[node_id])
        self._snoop_port_free[node_id] = (
            start + self.config.ring.snoop_time
        )
        self.port_wait_cycles += start - ready
        return start - ready

    def links_busy(self, now: int) -> int:
        """Physical links with a reservation extending past ``now``."""
        return sum(1 for free in self._link_free.values() if free > now)

    def snoop_port_backlog(self, now: int) -> float:
        """Mean pending snoops per CMP port at time ``now``.

        Each port's backlog is its booked-beyond-now time divided by
        the per-snoop service time; 0.0 whenever port serialization is
        off (the bookings then never exist).
        """
        snoop_time = self.config.ring.snoop_time
        if not snoop_time or not self._snoop_port_free:
            return 0.0
        backlog = sum(
            free - now for free in self._snoop_port_free if free > now
        )
        return backlog / (len(self._snoop_port_free) * snoop_time)

    def forward_request(
        self, txn: "Transaction", from_node: int, departure: int
    ) -> None:
        """Send the request/combined form across one ring segment,
        leaving ``from_node`` at ``departure``, and schedule its
        arrival at the next node."""
        msg = txn.msg
        assert msg is not None
        msg.hops_request += 1
        self._charge_crossing(txn)
        departure = self._cross_link(txn, from_node, departure)
        requester = txn.requester_cmp
        to_node = self._succ[requester][from_node]
        arrival = departure + self._in_lat[requester][to_node]
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    departure,
                    EventType.HOP,
                    txn.txn_id,
                    from_node,
                    txn.address,
                    {
                        "to": to_node,
                        "arrival": arrival,
                        "mode": msg.mode.value,
                        "satisfied": msg.satisfied,
                        "squashed": msg.squashed,
                    },
                )
            )
        txn.next_node = to_node
        self.engine.call_at(arrival, txn.step_cb)

    def _charge_crossing(self, txn: "Transaction") -> None:
        self.energy.charge_ring_crossing()
        if txn.kind is SnoopKind.READ:
            self.stats.read_ring_crossings += 1
        else:
            self.stats.write_ring_crossings += 1

    def _advance_trailing_reply(
        self, txn: "Transaction", node_id: int
    ) -> None:
        """Move the trailing reply across the segment into ``node_id``
        (the node currently processing the request).

        With link-contention modeling on, the reply reserves the same
        link the request used; the reservation is made when the
        request is processed, a one-hop-early approximation that keeps
        the reply's timing analytic.
        """
        msg = txn.msg
        assert msg is not None
        if msg.mode is MessageMode.SPLIT:
            assert msg.reply_time is not None
            requester = txn.requester_cmp
            departure = self._cross_link(
                txn, self._pred[requester][node_id], msg.reply_time
            )
            msg.reply_time = departure + self._in_lat[requester][node_id]
            msg.hops_reply += 1
            self._charge_crossing(txn)

    def walk_from(
        self, txn: "Transaction", node_id: int, now: int
    ) -> None:
        """Process the request's arrival at ``node_id`` at time
        ``now`` (the engine clock of the hop's event)."""
        msg = txn.msg
        assert msg is not None
        if node_id == txn.requester_cmp:
            # The final reply crossing is accounted by _walk_returned.
            self._walk_returned(txn, now)
            return
        self._advance_trailing_reply(txn, node_id)

        if msg.squashed or msg.satisfied:
            # Squashed messages circulate for serialization only; a
            # satisfied combined R/R is a reply and induces no snoops.
            self.forward_request(txn, node_id, now)
            return

        if txn.kind is SnoopKind.WRITE:
            self._write_step(txn, node_id, now)
            return

        self._read_step(txn, node_id, now)

    # ------------------------------------------------------------------
    # Read walk

    def _read_step(
        self, txn: "Transaction", node_id: int, now: int
    ) -> None:
        msg = txn.msg
        assert msg is not None
        node = self.nodes[node_id]
        address = txn.address
        entry = self._supplier_of.get(address)
        supplier_here = entry is not None and entry[0] == node_id

        if not msg.satisfied_reply and not msg.satisfied:
            # The paper's "perfect predictor" is checked at every node
            # until the request finds the supplier.
            self.stats.perfect_accuracy.record(supplier_here, supplier_here)

        if self._uses_predictor:
            predictor = node.predictor
            prediction = predictor.lookup(address)
            predictor_latency = predictor.latency
            if not isinstance(predictor, PerfectPredictor):
                self.stats.accuracy.record(prediction, supplier_here)
            trace = self._trace
            if trace is not None:
                trace.emit(
                    TraceEvent(
                        now,
                        EventType.PREDICTOR,
                        txn.txn_id,
                        node_id,
                        address,
                        {
                            "kind": self._predictor_kind,
                            "prediction": prediction,
                            "truth": supplier_here,
                        },
                    )
                )
        else:
            prediction = True
            predictor_latency = 0

        if self._ctx_needs_txn:
            ctx = DecisionContext(
                prediction,
                retries=txn.retry_count,
                waiters=len(txn.waiters),
                ring_age=msg.hops_request,
            )
        else:
            ctx = self._ctx_true if prediction else self._ctx_false
        primitive = self._choose(ctx)
        if primitive is Primitive.FORWARD:
            if supplier_here:
                raise CoherenceError(
                    "algorithm %s filtered the snoop at the supplier node "
                    "(false negative on line %#x at CMP %d)"
                    % (self.algorithm.name, address, node_id)
                )
            # Filtered hop - apply_primitive's FORWARD branch inlined:
            # both physical forms pass through unchanged after the
            # predictor access, so no outcome object is needed on the
            # read walk's most common step.
            if (
                self._prefetch_on_snoop
                and node_id == self._home_of(address)
                and not txn.prefetch_initiated
                and not msg.satisfied_reply
            ):
                txn.prefetch_initiated = True
                self.memory.note_prefetch()
            self.forward_request(txn, node_id, now + predictor_latency)
            return

        snoop_queue_delay = self._reserve_snoop_port(
            node_id, now + predictor_latency
        )
        outcome = apply_primitive(
            msg,
            primitive,
            now=now,
            snoop_time=self.config.ring.snoop_time,
            predictor_latency=predictor_latency,
            node_is_supplier=supplier_here,
            node=node_id,
            snoop_queue_delay=snoop_queue_delay,
        )

        if outcome.snooped:
            self.stats.read_snoops += 1
            self.energy.charge_snoop()
            trace = self._trace
            if trace is not None:
                trace.emit(
                    TraceEvent(
                        now,
                        EventType.SNOOP,
                        txn.txn_id,
                        node_id,
                        address,
                        {
                            "kind": "read",
                            "primitive": primitive.value,
                            "snoop_done": outcome.snoop_done,
                            "supplied": outcome.supplied,
                        },
                    )
                )
            if (
                not supplier_here
                and prediction
                and self.algorithm.uses_predictor()
            ):
                node.predictor.observe_false_positive(address)
            if outcome.supplied:
                assert outcome.snoop_done is not None
                self._datapath.supply_read(txn, node_id, outcome.snoop_done)

        if self.memory.config.prefetch_on_snoop and node_id == (
            self.memory.home_of(address)
        ):
            if not txn.prefetch_initiated and not msg.satisfied_reply:
                txn.prefetch_initiated = True
                self.memory.note_prefetch()

        self.forward_request(txn, node_id, outcome.request_departure)

    # ------------------------------------------------------------------
    # Write walk

    def _write_step(
        self, txn: "Transaction", node_id: int, now: int
    ) -> None:
        msg = txn.msg
        assert msg is not None
        node = self.nodes[node_id]
        address = txn.address
        entry = self._supplier_of.get(address)
        supplier_here = entry is not None and entry[0] == node_id

        # Writes snoop (and invalidate) at every node; decoupling only
        # changes whether invalidations proceed in parallel.  With the
        # presence-predictor extension, a node that provably caches no
        # copy skips the snoop entirely (the filter has no false
        # negatives, so this never misses a copy).
        predictor_latency = 0
        if self.presence:
            presence = self.presence[node_id]
            predictor_latency = presence.access_latency
            if not presence.may_be_present(address):
                outcome = apply_primitive(
                    msg,
                    Primitive.FORWARD,
                    now=now,
                    snoop_time=self.config.ring.snoop_time,
                    predictor_latency=predictor_latency,
                    node_is_supplier=False,
                    node=node_id,
                )
                self.forward_request(
                    txn, node_id, outcome.request_departure
                )
                return
        primitive = (
            Primitive.FORWARD_THEN_SNOOP
            if self.algorithm.decouple_writes
            else Primitive.SNOOP_THEN_FORWARD
        )
        outcome = apply_primitive(
            msg,
            primitive,
            now=now,
            snoop_time=self.config.ring.snoop_time,
            predictor_latency=predictor_latency,
            node_is_supplier=False,  # writes never mark the message satisfied
            node=node_id,
            snoop_queue_delay=self._reserve_snoop_port(
                node_id, now + predictor_latency
            ),
        )
        assert outcome.snooped and outcome.snoop_done is not None
        self.stats.write_snoops += 1
        self.energy.charge_snoop()
        trace = self._trace
        if trace is not None:
            trace.emit(
                TraceEvent(
                    now,
                    EventType.SNOOP,
                    txn.txn_id,
                    node_id,
                    address,
                    {
                        "kind": "write",
                        "primitive": primitive.value,
                        "snoop_done": outcome.snoop_done,
                        "supplied": False,
                    },
                )
            )

        if supplier_here and txn.needs_data and txn.data_arrival is None:
            self._datapath.capture_write_supply(
                txn, node_id, outcome.snoop_done
            )

        snoop_done = outcome.snoop_done
        self.engine.call_at(
            snoop_done, lambda: self.nodes[node_id].invalidate_all(address)
        )

        self.forward_request(txn, node_id, outcome.request_departure)

    # ------------------------------------------------------------------
    # Walk completion

    def _walk_returned(self, txn: "Transaction", now: int) -> None:
        """The request form is back at the requester; wait for the
        trailing reply if the message is split.  ``now`` is the
        request's arrival time."""
        msg = txn.msg
        assert msg is not None
        if msg.mode is MessageMode.SPLIT:
            assert msg.reply_time is not None
            requester = txn.requester_cmp
            info_time = msg.reply_time + self._in_lat[requester][requester]
            msg.hops_reply += 1
            self._charge_crossing(txn)
        else:
            info_time = now
        self.engine.call_at(
            max(info_time, now), lambda: self._walk_done(txn)
        )

    def _walk_done(self, txn: "Transaction") -> None:
        now = self.engine.now
        msg = txn.msg
        assert msg is not None
        if msg.squashed:
            trace = self._trace
            if trace is not None:
                trace.emit(
                    TraceEvent(
                        now,
                        EventType.SQUASH,
                        txn.txn_id,
                        txn.requester_cmp,
                        txn.address,
                        {},
                    )
                )
            txns = self._txns
            txns.retire(txn)
            self.stats.squashes += 1
            self.engine.call_after(
                self.config.squash_backoff, lambda: txns.retry(txn)
            )
            return
        if txn.kind is SnoopKind.WRITE:
            self._datapath.write_done(txn, now)
        else:
            self._datapath.read_done(txn, now)
