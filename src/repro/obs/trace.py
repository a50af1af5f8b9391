"""Typed lifecycle events and the sinks that collect them.

Interface contract
==================

The object core's subsystems
(:class:`~repro.sim.transactions.TransactionManager`,
:class:`~repro.sim.walker.RingWalker`,
:class:`~repro.sim.datapath.DataPathModel`) each hold an optional
``trace`` reference; when it is not ``None`` they call
:meth:`TraceSink.emit` with one :class:`TraceEvent` per lifecycle
point.  The array core (:mod:`repro.sim.soa`) emits the same events
from its fused loop: same simulated instants, transaction ids, nodes,
addresses and payloads, in the same order, so a traced run writes the
same JSONL bytes on either core (``tests/golden/test_trace_equivalence.py``
pins this).  The event vocabulary (:class:`EventType`) mirrors the
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

Performance contract: with tracing off neither core constructs a
:class:`TraceEvent`; the only residual cost is one guard per emission
site - an ``is not None`` test on the object core, a hoisted local
bool on the array core (target <=3%) - which every untraced leg of the
end-to-end benchmark in ``benchmarks/e2e`` pays.
"""

from __future__ import annotations

import enum
import os
import shutil
import tempfile
from typing import IO, Any, Callable, List, Mapping, NamedTuple, Optional


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

#: Characters per read when a stream sink copies its spooled events.
_COPY_CHUNK = 1 << 16


class TraceSink:
    """Base sink: receives every emitted :class:`TraceEvent`.

    Subclasses override :meth:`emit`; :meth:`close` is called once by
    the owner when the run is over (file-backed sinks flush here).
    ``meta`` is the run's metadata: :func:`~repro.obs.runner.run_traced`
    sets it before the run and completes it (``exec_time``,
    ``num_events``) before closing the sink, and file-backed sinks
    write it as their header.
    """

    meta: Optional[Mapping[str, Any]] = None

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
    """Streams events to a JSONL file as they are emitted.

    Bounded memory.  ``path`` is opened here, so an unwritable path
    fails before any event.  The header comes first in the file but
    holds results known only after the run, so events spool to an
    anonymous file beside ``path`` and :meth:`close` writes the header
    (``meta`` as it is then, if not ``None``) followed by the spooled
    events: the file is byte-identical to
    :func:`repro.obs.jsonl.write_trace` of the same events and meta,
    and :class:`repro.obs.jsonl.TraceReader` reads it back.
    """

    def __init__(
        self,
        path: str,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        from repro.obs.jsonl import WRITE_CHUNK, encode_event, encode_meta

        self.path = path
        self.meta = meta
        self._encode = encode_event
        self._encode_meta = encode_meta
        self._chunk = WRITE_CHUNK
        # Encoded lines not yet spooled: one write per chunk.
        self._lines: List[str] = []
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        try:
            self._spool: Optional[IO[str]] = tempfile.TemporaryFile(
                "w+",
                encoding="utf-8",
                dir=os.path.dirname(os.path.abspath(path)),
            )
        except OSError:
            self._handle.close()
            raise

    def emit(self, event: TraceEvent) -> None:
        spool = self._spool
        if spool is None:
            raise ValueError("sink is closed")
        lines = self._lines
        lines.append(self._encode(event))
        if len(lines) == self._chunk:
            spool.write("\n".join(lines) + "\n")
            lines.clear()

    def hand_off(self, fork: Callable[[], None]) -> None:
        """Give this sink to the process ``fork`` starts.

        The forked copy of the sink shares the open files and writes
        them at its :meth:`close`.  The files are flushed first, so no
        buffered write is made twice; after ``fork`` returns, this copy
        is closed without writing anything (:meth:`emit` then raises
        and :meth:`close` does nothing).  If ``fork`` raises, the sink
        is left open, as it was.
        """
        handle, spool = self._handle, self._spool
        if handle is None or spool is None:
            raise ValueError("sink is closed")
        spool.flush()
        handle.flush()
        fork()
        self._handle = self._spool = None
        self._lines = []
        spool.close()
        handle.close()

    def close(self) -> None:
        handle, spool = self._handle, self._spool
        if handle is None or spool is None:
            return
        self._handle = self._spool = None
        try:
            if self.meta is not None:
                handle.write(self._encode_meta(self.meta) + "\n")
            if self._lines:
                spool.write("\n".join(self._lines) + "\n")
                self._lines.clear()
            # Both files hold UTF-8 text, so the spool is copied as
            # bytes, with nothing decoded and encoded again.
            spool.flush()
            handle.flush()
            spool.buffer.seek(0)
            shutil.copyfileobj(spool.buffer, handle.buffer, _COPY_CHUNK)
        finally:
            spool.close()
            handle.close()


def resolve_sink(spec: str) -> TraceSink:
    """Resolve a sink *spec* to a sink instance.

    A spec is a registry sink name with an optional colon-separated
    argument passed to the factory: ``"memory"`` builds an
    :class:`InMemorySink`; ``"jsonl:/tmp/run.jsonl"`` builds a
    :class:`JsonlStreamSink` streaming to that path.
    """
    from repro.registry import REGISTRY

    name, _, arg = str(spec).partition(":")
    args = (arg,) if arg else ()
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
