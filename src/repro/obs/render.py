"""Filtering and human-readable rendering of run traces.

``flexsnoop trace show`` lands here: filter a trace by address,
transaction id and/or node, then render one indented timeline block
per transaction (issue header, then each lifecycle event with its
simulated time, node and payload), followed by any machine events
(downgrades) that match the filter.  :func:`select_events` does the
filtering as the file streams past, keeping only what will be
printed.  :func:`render_samples` is the
shared table renderer for :class:`~repro.obs.timeline.MetricsTimeline`
sample series, including the loaded-regime occupancy channels.
"""

from __future__ import annotations

import heapq
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
)

from repro.obs.trace import EventType, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.timeline import TimelineSample


def filter_events(
    events: List[TraceEvent],
    address: Optional[int] = None,
    txn: Optional[int] = None,
    node: Optional[int] = None,
) -> List[TraceEvent]:
    """Events matching every given criterion, in original order.

    ``node`` keeps whole transactions that touched the node (a hop
    timeline with holes is useless), plus matching machine events.
    """
    out = events
    if address is not None:
        out = [e for e in out if e.address == address]
    if txn is not None:
        out = [e for e in out if e.txn == txn]
    if node is not None:
        touched = {e.txn for e in out if e.txn >= 0 and e.node == node}
        out = [
            e
            for e in out
            if (e.txn in touched) or (e.txn < 0 and e.node == node)
        ]
    return out


class Selection(NamedTuple):
    """What :func:`select_events` kept of a trace, and what it counted."""

    #: The matching events :func:`render_timeline` prints.
    events: List[TraceEvent]
    #: Matching events, printed or not.
    matched: int
    #: Events read.
    total: int
    #: Matching transactions dropped by ``limit``.
    elided: int


def _matches(
    event: TraceEvent, address: Optional[int], txn: Optional[int]
) -> bool:
    return (address is None or event.address == address) and (
        txn is None or event.txn == txn
    )


def select_events(
    events: Iterable[TraceEvent],
    address: Optional[int] = None,
    txn: Optional[int] = None,
    node: Optional[int] = None,
    limit: Optional[int] = None,
) -> Selection:
    """:func:`filter_events` over a stream, in bounded memory.

    One pass over ``events`` (two with ``node``: the first collects
    the transactions that touched the node, so ``events`` must then be
    iterable twice, as a :class:`~repro.obs.jsonl.TraceReader` is).
    Only matching events are kept and, with a non-negative ``limit``,
    only those of the ``limit`` lowest matching transaction ids - what
    :func:`render_timeline` would print.  The rest are counted.
    ``render_timeline(selection.events, limit, selection.elided)``
    prints exactly ``render_timeline(filter_events(...), limit)``.
    """
    touched: Optional[Set[int]] = None
    if node is not None:
        touched = {
            e.txn
            for e in events
            if e.txn >= 0 and e.node == node and _matches(e, address, txn)
        }
    bounded = limit is not None and limit >= 0
    groups: Dict[int, List[TraceEvent]] = {}
    # Kept ids as a max-heap (negated), when bounded by ``limit``.
    kept: List[int] = []
    machine: List[TraceEvent] = []
    matched_txns: Set[int] = set()
    matched = total = 0
    for event in events:
        total += 1
        if not _matches(event, address, txn):
            continue
        txn_id = event.txn
        if touched is not None and txn_id not in touched and not (
            txn_id < 0 and event.node == node
        ):
            continue
        matched += 1
        if txn_id < 0:
            machine.append(event)
            continue
        group = groups.get(txn_id)
        if group is not None:
            group.append(event)
            continue
        matched_txns.add(txn_id)
        if bounded:
            if len(kept) == limit:
                # Full: the new id displaces the highest kept one, or
                # is dropped.  A dropped id stays above every kept id,
                # so its later events are dropped too.
                if not kept or txn_id > -kept[0]:
                    continue
                del groups[-heapq.heappushpop(kept, -txn_id)]
            else:
                heapq.heappush(kept, -txn_id)
        groups[txn_id] = [event]
    selected = [event for txn_id in sorted(groups) for event in groups[txn_id]]
    return Selection(
        selected + machine,
        matched,
        total,
        len(matched_txns) - len(groups),
    )


def render_samples(samples: Sequence["TimelineSample"]) -> str:
    """Fixed-width table of a metrics-timeline series, one row per
    sampling window.

    The occupancy columns read 0.0 unless the run modeled contention:
    ``linkutil`` is the fraction of physical-link capacity booked
    during the window (reservations are charged when made, so a
    heavily backlogged window can exceed 1.0), ``portq`` the mean
    pending snoops per CMP port at the sample instant.
    """
    if not samples:
        return "(no samples)"
    lines = [
        "%12s %-8s %9s %9s %8s %8s %12s %9s %7s"
        % (
            "time",
            "phase",
            "inflight",
            "requests",
            "snoops",
            "retries",
            "snoops/req",
            "linkutil",
            "portq",
        )
    ]
    for sample in samples:
        lines.append(
            "%12d %-8s %9d %9d %8d %8d %12.2f %9.3f %7.2f"
            % (
                sample.time,
                sample.phase,
                sample.inflight,
                sample.requests,
                sample.snoops,
                sample.retries,
                sample.snoops_per_request,
                sample.link_util,
                sample.port_queue,
            )
        )
    return "\n".join(lines)


def _payload(data: Mapping[str, Any]) -> str:
    return " ".join(
        "%s=%s" % (key, value) for key, value in sorted(data.items())
    )


def render_timeline(
    events: List[TraceEvent],
    limit: Optional[int] = None,
    elided: int = 0,
) -> str:
    """One text block per transaction, oldest first.

    ``limit`` caps the number of transactions rendered (the trailing
    line says how many were elided, counting the ``elided``
    transactions a :func:`select_events` pass already dropped).
    """
    by_txn: Dict[int, List[TraceEvent]] = {}
    machine: List[TraceEvent] = []
    for event in events:
        if event.txn < 0:
            machine.append(event)
        else:
            by_txn.setdefault(event.txn, []).append(event)

    txn_ids = sorted(by_txn)
    if limit is not None and limit >= 0 and len(txn_ids) > limit:
        elided += len(txn_ids) - limit
        txn_ids = txn_ids[:limit]

    lines: List[str] = []
    for txn_id in txn_ids:
        group = by_txn[txn_id]
        first = group[0]
        issue = next(
            (e for e in group if e.type is EventType.ISSUE), None
        )
        kind = issue.data.get("kind", "?") if issue else "?"
        lines.append(
            "txn %d  %s %#x  (issued @ %d from node %d)"
            % (txn_id, kind, first.address, first.time, first.node)
        )
        for event in group:
            lines.append(
                "  %10d  node %-3d %-10s %s"
                % (
                    event.time,
                    event.node,
                    event.type.value,
                    _payload(event.data),
                )
            )
    if machine:
        lines.append("machine events:")
        for event in machine:
            lines.append(
                "  %10d  node %-3d %-10s addr=%#x %s"
                % (
                    event.time,
                    event.node,
                    event.type.value,
                    event.address,
                    _payload(event.data),
                )
            )
    if elided:
        lines.append("... %d more transaction(s) elided (--limit)" % elided)
    if not lines:
        return "(no events match the filter)"
    return "\n".join(lines)
