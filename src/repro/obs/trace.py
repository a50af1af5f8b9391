"""Typed lifecycle events and the sinks that collect them.

Interface contract
==================

The simulator subsystems (:class:`~repro.sim.transactions.TransactionManager`,
:class:`~repro.sim.walker.RingWalker`,
:class:`~repro.sim.datapath.DataPathModel`) each hold an optional
``trace`` reference; when it is not ``None`` they call
:meth:`TraceSink.emit` with one :class:`TraceEvent` per lifecycle
point.  The event vocabulary (:class:`EventType`) mirrors the
transaction life cycle of the paper's Section 4: issue, per-hop ring
crossings, predictor lookups, Table 2 snoops, supplier data supply,
squash/retry, cache fill, Exact-predictor downgrade, and retirement.

Every event is stamped with the simulated time, the CMP node it
happened at, the line address, and the owning transaction id
(``txn = -1`` for machine events outside any transaction, e.g.
replacement-driven downgrades).  The ``data`` mapping carries the
per-type payload documented in ``docs/observability.md``; the audit
validators (:mod:`repro.obs.audit`) key off it.

Sinks are resolved by name through the component registry (kind
``"sink"``), so ``TraceConfig.sink`` in a machine config selects one
and plugins can add more (entry-point group ``flexsnoop.sinks``).

Performance contract: with tracing off the subsystems never construct
a :class:`TraceEvent`; the only residual cost is the ``is not None``
guard (target <=3%), which every untraced leg of the end-to-end
benchmark in ``benchmarks/e2e`` pays.
"""

from __future__ import annotations

import enum
from typing import IO, Any, List, Mapping, NamedTuple, Optional


class EventType(enum.Enum):
    """Lifecycle points a simulation run can emit."""

    #: A ring transaction was issued (data: kind, core, squashed).
    ISSUE = "issue"
    #: The request/combined form crossed one ring segment
    #: (data: to, arrival, mode, satisfied, squashed).
    HOP = "hop"
    #: A Supplier Predictor was consulted on a read walk
    #: (data: kind, prediction, truth).
    PREDICTOR = "predictor"
    #: A Table 2 snoop operation was performed
    #: (data: kind, primitive, snoop_done, supplied).
    SNOOP = "snoop"
    #: A supplier cache answered the request
    #: (data: kind, form, version, data_arrival).
    SUPPLY = "supply"
    #: The squashed message finished its serialization-only circuit.
    SQUASH = "squash"
    #: A squashed transaction re-issued after its back-off.
    RETRY = "retry"
    #: MSHR waiter activity behind an in-flight transaction: a
    #: same-CMP core joined the wait queue, or a waiter was released
    #: at retirement (data: phase ("wait" | "reissue"), core,
    #: position).  ``txn`` is the blocking transaction.
    MSHR = "mshr"
    #: The requester cache installed the line
    #: (data: source, version).
    FILL = "fill"
    #: The Exact predictor downgraded a line on conflict eviction
    #: (data: writeback).
    DOWNGRADE = "downgrade"
    #: The transaction retired (data: kind, squashed).
    RETIRE = "retire"


class TraceEvent(NamedTuple):
    """One emitted lifecycle event.

    A NamedTuple rather than a dataclass: emission sits on the hot
    path when tracing is on, and tuple construction is the cheapest
    structured record CPython offers.
    """

    time: int
    type: EventType
    txn: int
    node: int
    address: int
    data: Mapping[str, Any]


#: Transaction id used for machine events outside any transaction.
NO_TXN = -1


class TraceSink:
    """Base sink: receives every emitted :class:`TraceEvent`.

    Subclasses override :meth:`emit`; :meth:`close` is called once by
    the owner when the run is over (file-backed sinks flush here).
    """

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; idempotent."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class InMemorySink(TraceSink):
    """Collects events in a list (the default sink).

    The whole trace of a golden-scale run is a few hundred thousand
    tuples, well within memory; for very long runs prefer
    :class:`JsonlStreamSink`.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonlStreamSink(TraceSink):
    """Streams events straight to a JSONL file as they are emitted.

    Constant memory; the file layout matches
    :func:`repro.obs.jsonl.write_trace` (an optional meta header line,
    then one event object per line), so :func:`repro.obs.jsonl.read_trace`
    reads it back.  ``events_emitted`` counts what went to disk, so
    callers report event totals without re-reading the file.
    """

    def __init__(
        self,
        path: str,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        from repro.obs.jsonl import encode_event, encode_meta

        self.path = path
        self.events_emitted = 0
        self._encode = encode_event
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        if meta is not None:
            self._handle.write(encode_meta(meta) + "\n")

    def emit(self, event: TraceEvent) -> None:
        handle = self._handle
        if handle is None:
            raise ValueError("sink is closed")
        handle.write(self._encode(event) + "\n")
        self.events_emitted += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def resolve_sink(
    spec: str, meta: Optional[Mapping[str, Any]] = None
) -> TraceSink:
    """Resolve a sink *spec* to a sink instance.

    A spec is a registry sink name with an optional colon-separated
    argument passed to the factory: ``"memory"`` builds an
    :class:`InMemorySink`; ``"jsonl:/tmp/run.jsonl"`` builds a
    :class:`JsonlStreamSink` streaming to that path.  ``meta`` is
    forwarded to factories that accept it (file-backed sinks write it
    as their header line) and silently dropped for those that do not.
    """
    from repro.registry import REGISTRY

    name, _, arg = str(spec).partition(":")
    args = (arg,) if arg else ()
    if meta is not None:
        try:
            return REGISTRY.create("sink", name, *args, meta=meta)
        except TypeError:
            pass
    try:
        return REGISTRY.create("sink", name, *args)
    except TypeError as exc:
        raise ValueError("bad sink spec %r: %s" % (spec, exc)) from exc


def _register_sinks() -> None:
    """Expose the built-in sinks through the component registry, the
    same name-resolution path algorithms and workloads use."""
    from repro.registry import REGISTRY

    REGISTRY.register(
        "sink",
        "memory",
        InMemorySink,
        metadata={"description": "collect events in a list"},
    )
    REGISTRY.register(
        "sink",
        "jsonl",
        JsonlStreamSink,
        metadata={"description": "stream events to a JSONL file"},
    )


_register_sinks()
