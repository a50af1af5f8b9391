"""Per-transaction lifecycle validators for emitted traces.

Interface contract
==================

:class:`TraceAuditor` replays a trace (a sequence of
:class:`~repro.obs.trace.TraceEvent`, in emission order) through one
finite-state validator per transaction and returns every
:class:`Violation` found.  It is strictly stronger than the end-state
checker (``RingMultiprocessor._check_line_invariants`` snapshots line
states after the fact); the auditor checks the *mechanism*:

* **Lifecycle** - every issued transaction retires exactly once, the
  issue comes first, and only a retry may follow retirement.
* **Ring conservation** (Table 2) - the request/combined form of every
  message crosses exactly ``num_cmps`` segments, hop-by-hop along its
  requester's walk from the requester back to the requester, with no
  teleports.
* **Recombination** - a ``snoop_then_forward`` snoop always forwards a
  single Combined R/R: the transaction's next hop must be combined
  (the primitive never emits a separate reply).
* **Supply** - at most one supplier answers; after a combined-form
  supply the message is a reply and induces no further snoops or
  predictor lookups.
* **Predictor guarantees** - Subset/Exact predictions are never false
  positives, Superset predictions are never false negatives,
  Exact/Perfect are never wrong at all (Section 4.3).
* **Policy guarantees** (when the audited algorithm's
  :class:`~repro.core.decision.DecisionTable` is supplied) - every
  read snoop's primitive belongs to the table's alphabet; after a
  negative prediction the node snoops only if some reachable row says
  so, and after a positive prediction the node *must* snoop unless
  some reachable row forwards; write snoops use the coupled or
  decoupled form the policy declares.
* **Squash discipline** - a squashed message circulates for
  serialization only: no snoops, no supply, no fill, exactly one
  squash marker and one retry; a non-squashed transaction fills the
  requester cache exactly once and never retries.
* **MSHR fairness** (cross-transaction rider) - waiters queued behind
  a transaction are released at its retirement in exactly their wait
  order, none dropped, none invented.
* **Same-address serialization** (cross-transaction rider) - at any
  instant at most one non-squashed write-involving transaction is in
  flight per line: a conflicting issue must be squashed, and a squash
  must have a conflict to justify it (Section 2.1.4 in event order).
* **Time sanity** - hops and retirement never precede the issue, and
  retirement never precedes the last hop.

The auditor is pure (no simulator imports beyond the event types and
the decision-table data model), so it runs equally on live events and
on traces read back from JSONL files.  :func:`auditor_for` builds the
auditor a trace's metadata describes, resolving the policy by name.

Online audit
============

:meth:`TraceAuditor.feed` takes the trace one event at a time and
:meth:`TraceAuditor.finish` returns the violations, so an audit holds
the transactions in flight rather than the whole trace
(:meth:`TraceAuditor.audit` is ``feed`` for every event, then
``finish``).  Each transaction's events are buffered until it
*closes*: it has retired, its MSHR reissues match its waits, and, if
it was issued squashed, it has retried.  The per-transaction rules
then run on the buffer and the buffer is dropped; the serialization
sweep keeps only the transactions in flight per line.  What stays
per closed transaction is its id, in a set, so a later event for it
is recognised.

Nothing may legally follow closure, so a transaction that gets an
event after it closed always breaks a per-transaction rule (a second
issue, retire or retry, a reissue without a waiter, or an event after
retirement).  :meth:`~TraceAuditor.finish` re-audits just those
transactions from a second pass over the trace, so the verdict -
every violation, message and order - equals a batch audit of the
whole trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.decision import DecisionTable
from repro.core.primitives import Primitive
from repro.obs.trace import EventType, TraceEvent
from repro.ring.topology import ring_successors

#: Predictor kinds that may never predict a supplier that is absent.
_NO_FALSE_POSITIVE_KINDS = ("subset", "exact", "perfect")
#: Predictor kinds that may never miss a supplier that is present.
_NO_FALSE_NEGATIVE_KINDS = ("superset", "exact", "perfect")

# Event types as module globals: the hot loops test them with ``is``,
# because an EventType-keyed dict hashes the enum in Python.
_ISSUE = EventType.ISSUE
_HOP = EventType.HOP
_PREDICTOR = EventType.PREDICTOR
_SNOOP = EventType.SNOOP
_SUPPLY = EventType.SUPPLY
_SQUASH = EventType.SQUASH
_RETRY = EventType.RETRY
_MSHR = EventType.MSHR
_FILL = EventType.FILL
_RETIRE = EventType.RETIRE
_SNOOP_THEN_FORWARD = Primitive.SNOOP_THEN_FORWARD.value


@dataclass(frozen=True)
class Violation:
    """One broken lifecycle rule, anchored to a transaction."""

    txn: int
    rule: str
    time: int
    message: str

    def __str__(self) -> str:
        return "txn %d @ %d [%s]: %s" % (
            self.txn,
            self.time,
            self.rule,
            self.message,
        )


class _Counts(NamedTuple):
    """One transaction's event counts the squash discipline reads."""

    snoop: int
    supply: int
    fill: int
    predictor: int
    squash: int
    retry: int


#: A closed transaction's outcome: its violations, or the error its
#: audit raised (re-raised by ``finish`` in transaction order, where a
#: batch audit would have raised it).
_Outcome = Union[List[Violation], KeyError, TypeError, ValueError]


class TraceAuditor:
    """Validate a trace against the transaction lifecycle FSM.

    Args:
        num_cmps: node count of the audited machine.
        successors: the topology's successor cycle (``successors[i]``
            is the node one snoop segment downstream of ``i``), used
            by the per-segment conservation check.  Defaults to the
            single embedded ring; traced runs on other topologies
            persist their cycle in the trace metadata
            (``meta["successors"]``) for replayed audits.
        successor_rows: for a path-dependent topology, one successor
            list per requester (``successor_rows[r][i]`` is the node
            after ``i`` on the walk from ``r``), persisted as
            ``meta["successor_rows"]``; each hop is checked against
            its issuing requester's row.  Overrides ``successors``.
        table: the audited algorithm's static
            :class:`~repro.core.decision.DecisionTable`; enables the
            policy-guarantee checks (skipped when ``None``, e.g. for
            dynamic policies).
        decouple_writes: the policy's write-decoupling declaration;
            enables the write-snoop form check (skipped when ``None``).
    """

    def __init__(
        self,
        num_cmps: int,
        successors: Optional[Sequence[int]] = None,
        successor_rows: Optional[Sequence[Sequence[int]]] = None,
        table: Optional[DecisionTable] = None,
        decouple_writes: Optional[bool] = None,
    ) -> None:
        if num_cmps < 2:
            raise ValueError("need at least 2 CMPs for a ring")
        self.num_cmps = num_cmps
        if successor_rows is None:
            if successors is None:
                successors = ring_successors(num_cmps)
            successor_rows = [successors] * num_cmps
        if len(successor_rows) != num_cmps:
            raise ValueError(
                "%d successor rows for %d nodes"
                % (len(successor_rows), num_cmps)
            )
        # One successor list per requester: the hop check indexes the
        # issuing requester's row.
        self._rows = [[int(node) for node in row] for row in successor_rows]
        for row in self._rows:
            if sorted(row) != list(range(num_cmps)):
                raise ValueError(
                    "successor table is not a permutation of %d nodes"
                    % num_cmps
                )
        self._table = table
        self._decouple_writes = decouple_writes
        if table is not None:
            # Hoist the policy alphabet once: what primitives any
            # reachable row may emit after each prediction, and
            # whether a snoop/forward is optional or mandated.
            self._allowed_true = table.primitives_on(True)
            self._allowed_false = table.primitives_on(False)
        else:
            self._allowed_true = ()
            self._allowed_false = ()
        # ... and the primitive values the read-snoop checks compare
        # against: the snoop forms allowed after each prediction, and
        # the whole alphabet (tuples: ``in`` must not hash the value).
        self._snoop_values = {
            prediction: tuple(
                p.value for p in allowed if p is not Primitive.FORWARD
            )
            for prediction, allowed in (
                (True, self._allowed_true),
                (False, self._allowed_false),
            )
        }
        alphabet = set(self._allowed_true) | set(self._allowed_false)
        self._alphabet_values = tuple(p.value for p in alphabet)
        self._alphabet_text = ", ".join(sorted(self._alphabet_values))
        self._reset()

    def _reset(self) -> None:
        """Start a new trace."""
        # Open transactions' events so far, by transaction id.
        self._open: Dict[int, List[TraceEvent]] = {}
        self._closed: Set[int] = set()
        # Closed transactions that got another event: re-audited whole.
        self._late: Set[int] = set()
        # Outcomes of the audited transactions that did not come out
        # clean, by transaction id.
        self._found: Dict[int, _Outcome] = {}
        # Serialization sweep: address -> {txn_id: (is_write, squashed)}
        # for the transactions in flight on that line.
        self._active: Dict[int, Dict[int, Tuple[bool, bool]]] = {}
        self._serialization: List[Violation] = []

    def audit(self, events: Iterable[TraceEvent]) -> List[Violation]:
        """All violations in ``events`` (empty list = clean trace):
        :meth:`feed` for every event, then :meth:`finish`.

        ``events`` is read a second time only when an event arrives
        after its transaction closed; a one-shot iterator is listed
        first so that pass can happen.
        """
        if iter(events) is events:
            events = list(events)
        feed = self.feed
        for event in events:
            feed(event)
        return self.finish(events)

    @property
    def transactions(self) -> int:
        """Distinct transaction ids fed since the trace started."""
        return len(self._open) + len(self._closed)

    def feed(self, event: TraceEvent) -> None:
        """Take the trace's next event, in emission order."""
        txn = event.txn
        if txn < 0:
            return  # machine events (e.g. downgrades): no FSM
        kind = event.type
        if kind is _ISSUE or kind is _RETIRE:
            self._sweep(event)
        events = self._open.get(txn)
        if events is None:
            if txn in self._closed:
                self._late.add(txn)
                return
            events = self._open[txn] = [event]
        else:
            events.append(event)
        # Only these kinds can close a transaction.
        if (kind is _RETIRE or kind is _MSHR or kind is _RETRY) and _closes(
            events
        ):
            del self._open[txn]
            self._closed.add(txn)
            self._close(txn, events)

    def finish(
        self, source: Optional[Iterable[TraceEvent]] = None
    ) -> List[Violation]:
        """End the trace and return every violation, in the order a
        batch audit gives: by transaction id, then the serialization
        sweep's in emission order.

        ``source`` is the whole trace again (the event list, or a
        :class:`~repro.obs.jsonl.TraceReader` on the file).  It is read
        only when some transaction got an event after it closed, and
        then only that transaction's events are kept.  Raises
        ``ValueError`` if such a transaction exists and ``source`` is
        ``None``.  The auditor is then ready for a new trace.
        """
        try:
            for txn, events in self._open.items():
                self._close(txn, events)
            late: Dict[int, List[TraceEvent]] = {
                txn: [] for txn in self._late
            }
            if late:
                if source is None:
                    raise ValueError(
                        "%d transaction(s) got events after they closed; "
                        "re-auditing them needs the trace again" % len(late)
                    )
                for event in source:
                    group = late.get(event.txn)
                    if group is not None:
                        group.append(event)
            violations: List[Violation] = []
            for txn in sorted(self._found.keys() | late.keys()):
                found = (
                    self._audit_txn(txn, late[txn])
                    if txn in late
                    else self._found[txn]
                )
                if isinstance(found, Exception):
                    raise found
                violations.extend(found)
            violations.extend(self._serialization)
            return violations
        finally:
            self._reset()

    def _close(self, txn_id: int, events: List[TraceEvent]) -> None:
        """Run the per-transaction rules on a closed transaction.

        A malformed payload (a hop without an integer ``to``) makes the
        rules raise.  The error waits for :meth:`finish`: a later event
        may yet make this a re-audited transaction, whose whole event
        list a batch audit would have checked instead.
        """
        try:
            found: _Outcome = self._audit_txn(txn_id, events)
        except (KeyError, TypeError, ValueError) as exc:
            found = exc
        if found:
            self._found[txn_id] = found

    # ------------------------------------------------------------------
    # One transaction

    def _audit_txn(
        self, txn_id: int, events: List[TraceEvent]
    ) -> List[Violation]:
        out: List[Violation] = []

        def flag(rule: str, time: int, message: str) -> None:
            out.append(Violation(txn_id, rule, time, message))

        # One pass buckets the events by type (emission order kept
        # within each bucket); the count-based rules read the buckets,
        # and the order-based ones walk ``events`` only when the
        # transaction has the events they look for.
        issues: List[TraceEvent] = []
        retires: List[TraceEvent] = []
        hops: List[TraceEvent] = []
        predictors: List[TraceEvent] = []
        snoops: List[TraceEvent] = []
        supplies: List[TraceEvent] = []
        mshrs: List[TraceEvent] = []
        fills = squashes = retries = 0
        for event in events:
            kind = event.type
            if kind is _HOP:
                hops.append(event)
            elif kind is _PREDICTOR:
                predictors.append(event)
            elif kind is _SNOOP:
                snoops.append(event)
            elif kind is _ISSUE:
                issues.append(event)
            elif kind is _RETIRE:
                retires.append(event)
            elif kind is _FILL:
                fills += 1
            elif kind is _SUPPLY:
                supplies.append(event)
            elif kind is _MSHR:
                mshrs.append(event)
            elif kind is _SQUASH:
                squashes += 1
            elif kind is _RETRY:
                retries += 1

        issue = self._check_lifecycle(events, issues, retires, flag)
        if issue is None:
            return out
        squashed = bool(issue.data.get("squashed", False))
        self._check_hops(issue, hops, flag)
        if any(
            snoop.data.get("primitive") == _SNOOP_THEN_FORWARD
            for snoop in snoops
        ):
            self._check_recombination(events, flag)
        if supplies:
            self._check_supply(events, supplies, flag)
        self._check_predictions(predictors, flag)
        self._check_policy(events, predictors, snoops, flag)
        last = events[-1]
        self._check_squash_discipline(
            squashed,
            last,
            _Counts(
                len(snoops),
                len(supplies),
                fills,
                len(predictors),
                squashes,
                retries,
            ),
            flag,
        )
        if mshrs:
            self._check_mshr_fairness(mshrs, last.time, flag)
        return out

    def _check_lifecycle(
        self,
        events: List[TraceEvent],
        issues: List[TraceEvent],
        retires: List[TraceEvent],
        flag,
    ) -> Optional[TraceEvent]:
        first = events[0]
        if len(issues) != 1:
            flag(
                "lifecycle",
                first.time,
                "expected exactly 1 issue, saw %d" % len(issues),
            )
            return None
        if first.type is not EventType.ISSUE:
            flag(
                "lifecycle",
                first.time,
                "first event is %s, not issue" % first.type.value,
            )
            return None
        if len(retires) != 1:
            flag(
                "lifecycle",
                events[-1].time,
                "expected exactly 1 retire, saw %d" % len(retires),
            )
            return None
        retire = retires[0]
        after_retire = events[events.index(retire) + 1:]
        for event in after_retire:
            # Retirement itself releases the MSHR waiters (phase
            # "reissue"), and a squashed transaction's retry follows
            # its retirement; anything else is a zombie event.
            if event.type is _RETRY:
                continue
            if (
                event.type is _MSHR
                and event.data.get("phase") == "reissue"
            ):
                continue
            flag(
                "lifecycle",
                event.time,
                "%s emitted after retirement" % event.type.value,
            )
        if retire.time < first.time:
            flag(
                "time",
                retire.time,
                "retired at %d before issue at %d"
                % (retire.time, first.time),
            )
        return issues[0]

    def _check_hops(
        self, issue: TraceEvent, hops: List[TraceEvent], flag
    ) -> None:
        n = self.num_cmps
        if len(hops) != n:
            flag(
                "conservation",
                issue.time,
                "request crossed %d segments, ring has %d"
                % (len(hops), n),
            )
            return
        if not 0 <= issue.node < n:
            # A trace read back from a file may name any node; only an
            # in-range requester has a row to walk.
            flag(
                "conservation",
                issue.time,
                "issued at node %d, outside the %d-node ring"
                % (issue.node, n),
            )
            return
        succ = self._rows[issue.node]
        expected_from = issue.node
        for hop in hops:
            if hop.node != expected_from:
                flag(
                    "conservation",
                    hop.time,
                    "hop leaves node %d, expected %d"
                    % (hop.node, expected_from),
                )
                return
            to = int(hop.data["to"])
            if to != succ[hop.node]:
                flag(
                    "conservation",
                    hop.time,
                    "hop %d -> %d is not one snoop segment "
                    "(successor of %d is %d)"
                    % (hop.node, to, hop.node, succ[hop.node]),
                )
                return
            if hop.time < issue.time:
                flag(
                    "time",
                    hop.time,
                    "hop departs at %d before issue at %d"
                    % (hop.time, issue.time),
                )
            expected_from = to
        if expected_from != issue.node:
            flag(
                "conservation",
                hops[-1].time,
                "walk ended at node %d, not the requester %d"
                % (expected_from, issue.node),
            )

    def _check_recombination(self, events: List[TraceEvent], flag) -> None:
        awaiting: Optional[TraceEvent] = None
        for event in events:
            if (
                event.type is _SNOOP
                and event.data.get("primitive") == _SNOOP_THEN_FORWARD
            ):
                awaiting = event
            elif event.type is _HOP and awaiting is not None:
                if event.data.get("mode") != "combined":
                    flag(
                        "recombination",
                        event.time,
                        "snoop_then_forward at node %d forwarded a %s "
                        "message (must recombine into a single "
                        "combined R/R)"
                        % (awaiting.node, event.data.get("mode")),
                    )
                awaiting = None

    def _check_supply(
        self, events: List[TraceEvent], supplies: List[TraceEvent], flag
    ) -> None:
        if len(supplies) > 1:
            flag(
                "supply",
                supplies[1].time,
                "%d suppliers answered one request (single-supplier "
                "invariant)" % len(supplies),
            )
            return
        supply = supplies[0]
        if supply.data.get("form") != "combined":
            return  # reply-only supply: downstream snoops continue
        index = events.index(supply)
        for event in events[index + 1:]:
            if event.type is _SNOOP or event.type is _PREDICTOR:
                flag(
                    "supply",
                    event.time,
                    "%s after a combined-form supply (a satisfied "
                    "combined R/R induces no snoops)"
                    % event.type.value,
                )

    def _check_predictions(
        self, predictors: List[TraceEvent], flag
    ) -> None:
        for event in predictors:
            prediction = bool(event.data.get("prediction"))
            truth = bool(event.data.get("truth"))
            if prediction is truth:
                continue
            kind = event.data.get("kind")
            if (
                prediction
                and not truth
                and kind in _NO_FALSE_POSITIVE_KINDS
            ):
                flag(
                    "predictor",
                    event.time,
                    "%s predictor false positive at node %d"
                    % (kind, event.node),
                )
            if (
                truth
                and not prediction
                and kind in _NO_FALSE_NEGATIVE_KINDS
            ):
                flag(
                    "predictor",
                    event.time,
                    "%s predictor false negative at node %d"
                    % (kind, event.node),
                )

    def _check_policy(
        self,
        events: List[TraceEvent],
        predictors: List[TraceEvent],
        snoops: List[TraceEvent],
        flag,
    ) -> None:
        """Policy-guarantee checks driven by the decision table (the
        generalization of the predictor-guarantee rules): every snoop
        decision the trace records must be one the table can emit."""
        if self._table is not None:
            if predictors:
                self._check_decisions(events, flag)
            # Predictor-less policies (prediction implicitly True):
            # every read snoop must still use a primitive from the
            # table's positive-prediction alphabet.
            alphabet = self._alphabet_values
            for event in snoops:
                if event.data.get("kind") == "read":
                    primitive = event.data.get("primitive")
                    if primitive not in alphabet:
                        flag(
                            "policy",
                            event.time,
                            "read snoop used %r at node %d, outside the "
                            "policy alphabet {%s}"
                            % (primitive, event.node, self._alphabet_text),
                        )
        if self._decouple_writes is not None:
            expected = (
                Primitive.FORWARD_THEN_SNOOP.value
                if self._decouple_writes
                else Primitive.SNOOP_THEN_FORWARD.value
            )
            for event in snoops:
                if (
                    event.data.get("kind") == "write"
                    and event.data.get("primitive") != expected
                ):
                    flag(
                        "policy",
                        event.time,
                        "write snoop used %r at node %d, but the policy "
                        "declares %s write snoops (%s)"
                        % (
                            event.data.get("primitive"),
                            event.node,
                            "decoupled"
                            if self._decouple_writes
                            else "coupled",
                            expected,
                        ),
                    )

    def _check_decisions(self, events: List[TraceEvent], flag) -> None:
        """Pair each predictor lookup with the decision that follows
        it at the same node: the next SNOOP (the node snooped) or the
        next HOP (the node forwarded).  Other event types - MSHR joins,
        supplies landing from earlier nodes - may interleave and are
        skipped."""
        pending: Optional[TraceEvent] = None
        for event in events:
            kind = event.type
            if kind is _PREDICTOR:
                pending = event
                continue
            if pending is None:
                continue
            if kind is _SNOOP:
                if event.data.get("kind") == "read":
                    self._check_read_decision(pending, event, flag)
                pending = None
            elif kind is _HOP:
                prediction = bool(pending.data.get("prediction"))
                allowed = (
                    self._allowed_true if prediction else self._allowed_false
                )
                if Primitive.FORWARD not in allowed:
                    flag(
                        "policy",
                        event.time,
                        "node %d forwarded without snooping on a "
                        "%s prediction, but the policy mandates a "
                        "snoop (%s)"
                        % (
                            pending.node,
                            "positive" if prediction else "negative",
                            "/".join(p.value for p in allowed),
                        ),
                    )
                pending = None

    def _check_read_decision(
        self, lookup: TraceEvent, snoop: TraceEvent, flag
    ) -> None:
        prediction = bool(lookup.data.get("prediction"))
        allowed_values = self._snoop_values[prediction]
        primitive = snoop.data.get("primitive")
        if not allowed_values:
            flag(
                "policy",
                snoop.time,
                "node %d snooped on a %s prediction, but every "
                "reachable policy row forwards"
                % (snoop.node, "positive" if prediction else "negative"),
            )
        elif primitive not in allowed_values:
            flag(
                "policy",
                snoop.time,
                "read snoop used %r at node %d on a %s prediction; "
                "the policy allows {%s}"
                % (
                    primitive,
                    snoop.node,
                    "positive" if prediction else "negative",
                    ", ".join(allowed_values),
                ),
            )

    def _check_mshr_fairness(
        self, mshrs: List[TraceEvent], anchor: int, flag
    ) -> None:
        """Waiters queued behind this transaction must be released at
        retirement in exactly their wait order (the ROADMAP's
        MSHR-waiter fairness rider).  ``anchor``: the time of the
        transaction's last event."""
        waits: List[Tuple[int, int]] = []
        reissues: List[Tuple[int, int]] = []
        for event in mshrs:
            phase = event.data.get("phase")
            record = (
                int(event.data.get("core", -1)),
                int(event.data.get("position", -1)),
            )
            if phase == "wait":
                waits.append(record)
            elif phase == "reissue":
                reissues.append(record)
            else:
                flag(
                    "mshr",
                    event.time,
                    "unknown mshr phase %r" % phase,
                )
        if not waits and not reissues:
            return
        if [w[0] for w in waits] != [r[0] for r in reissues]:
            flag(
                "mshr",
                anchor,
                "waiters joined as cores %s but were released as %s "
                "(must retire in wait order)"
                % ([w[0] for w in waits], [r[0] for r in reissues]),
            )
        for queue, label in ((waits, "wait"), (reissues, "reissue")):
            positions = [p for _, p in queue]
            if positions != list(range(len(queue))):
                flag(
                    "mshr",
                    anchor,
                    "%s positions %s are not the contiguous queue "
                    "order %s"
                    % (label, positions, list(range(len(queue)))),
                )

    def _sweep(self, event: TraceEvent) -> None:
        """Cross-transaction sweep: same-address transactions serialize.

        Takes the trace's issues and retirements in emission order and
        checks the collision rule the ring enforces (Section 2.1.4): a
        new transaction must be squashed exactly when a non-squashed
        write-involving transaction on the same line is in flight, and
        concurrent non-squashed *reads* are the only legal overlap.
        """
        active = self._active
        if event.type is _ISSUE:
            address = event.address
            is_write = event.data.get("kind") == "write"
            squashed = bool(event.data.get("squashed", False))
            inflight = active.setdefault(address, {})
            conflict = any(
                not other_squashed and (is_write or other_write)
                for other_write, other_squashed in inflight.values()
            )
            if conflict and not squashed:
                self._serialization.append(
                    Violation(
                        event.txn,
                        "serialization",
                        event.time,
                        "non-squashed %s issued on line %#x with a "
                        "conflicting write-involving transaction "
                        "in flight"
                        % (
                            "write" if is_write else "read",
                            address,
                        ),
                    )
                )
            elif squashed and not conflict:
                self._serialization.append(
                    Violation(
                        event.txn,
                        "serialization",
                        event.time,
                        "transaction issued squashed on line %#x "
                        "with no conflicting transaction in flight"
                        % address,
                    )
                )
            inflight[event.txn] = (is_write, squashed)
        else:
            inflight = active.get(event.address)
            if inflight is not None:
                inflight.pop(event.txn, None)
                if not inflight:
                    del active[event.address]

    def _check_squash_discipline(
        self, squashed: bool, last: TraceEvent, counts: _Counts, flag
    ) -> None:
        if squashed:
            for kind, count in (
                (_SNOOP, counts.snoop),
                (_SUPPLY, counts.supply),
                (_FILL, counts.fill),
                (_PREDICTOR, counts.predictor),
            ):
                if count:
                    flag(
                        "squash",
                        last.time,
                        "squashed message performed %d %s event(s) "
                        "(serialization-only circuit)"
                        % (count, kind.value),
                    )
            if counts.squash != 1:
                flag(
                    "squash",
                    last.time,
                    "squashed transaction emitted %d squash markers, "
                    "expected 1" % counts.squash,
                )
            if counts.retry != 1:
                flag(
                    "squash",
                    last.time,
                    "squashed transaction retried %d times, expected 1"
                    % counts.retry,
                )
        else:
            if counts.squash:
                flag(
                    "squash",
                    last.time,
                    "non-squashed transaction emitted a squash marker",
                )
            if counts.retry:
                flag(
                    "squash",
                    last.time,
                    "non-squashed transaction retried",
                )
            if counts.fill != 1:
                flag(
                    "fill",
                    last.time,
                    "transaction filled the requester cache %d times, "
                    "expected exactly 1" % counts.fill,
                )



def _closes(events: List[TraceEvent]) -> bool:
    """Whether nothing may legally follow ``events``: the transaction
    has retired, its MSHR reissues match its waits, and, if its first
    issue was squashed, it has retried."""
    retires = waits = reissues = retries = 0
    squashed = None
    for event in events:
        kind = event.type
        if kind is _RETIRE:
            retires += 1
        elif kind is _MSHR:
            phase = event.data.get("phase")
            if phase == "wait":
                waits += 1
            elif phase == "reissue":
                reissues += 1
        elif kind is _RETRY:
            retries += 1
        elif kind is _ISSUE and squashed is None:
            squashed = bool(event.data.get("squashed", False))
    return bool(retires and waits == reissues and (retries or not squashed))


def auditor_for(meta: Mapping[str, Any], num_cmps: int = 0) -> TraceAuditor:
    """The auditor a trace's metadata describes.

    The ring size and the walk come from ``meta``: its successor cycle
    (``successors``) or per-requester rows (``successor_rows``), else
    the flat ring's cycle.  ``num_cmps`` overrides the ring size, and
    then the recorded walk is ignored: the header's geometry is being
    second-guessed.  The policy guarantees come from
    ``meta["algorithm"]``'s static decision table and write-snoop form;
    an algorithm this install does not know (a trace recorded with a
    plugin) gets the policy-agnostic checks.
    """
    from repro.core.algorithms import build_algorithm
    from repro.registry import UnknownComponentError

    policy: Dict[str, Any] = {}
    name = meta.get("algorithm")
    if name:
        try:
            algorithm = build_algorithm(name)
        except UnknownComponentError:
            pass
        else:
            policy = {
                "table": algorithm.decision_table(),
                "decouple_writes": algorithm.decouple_writes,
            }
    return TraceAuditor(
        num_cmps=num_cmps or meta.get("num_cmps") or 8,
        successors=None if num_cmps else meta.get("successors"),
        successor_rows=None if num_cmps else meta.get("successor_rows"),
        **policy,
    )
