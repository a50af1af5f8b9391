"""One-call traced simulation runs for the CLI, audits and tests.

:func:`run_traced` is :func:`repro.harness.experiments.run_experiment`
with the observability layer switched on: it resolves the same
(algorithm, workload, predictor, scale, seed) cell through the same
:class:`~repro.harness.parallel.RunSpec` machinery - so a traced run
simulates exactly the machine the harness would - then attaches a
trace sink (a :class:`~repro.obs.trace.TraceSink`, or a registry spec
such as ``"memory"`` or ``"jsonl:/tmp/run.jsonl"``) and, when
``sample_window`` is set, a metrics timeline, and returns everything
bundled as a :class:`TracedRun`.

The machine comes from :func:`~repro.sim.cores.build_core`, as every
run's does: the default core (``soa``) whenever its envelope covers
the resolved machine, and the object core otherwise (the metrics
timeline, the write filter, version tracking).  Both cores emit the
same events, so the choice changes the run's speed, not its trace;
:attr:`TracedRun.core` names the core that ran.  No work is rerun.

With a file-backed sink the events stream to disk as they are
emitted and :attr:`TracedRun.events` stays empty - recording a
million-event run needs bounded memory.  ``audit=True`` also feeds
every event to the online :class:`~repro.obs.audit.TraceAuditor` the
run's metadata describes, so the audit needs bounded memory too.
``meta["num_events"]`` and :attr:`TracedRun.transactions` are
accurate either way.

Where the events are consumed
=============================

The machine emits into a tee that hands every
:data:`~repro.obs.jsonl.WRITE_CHUNK` events to one consumer
(:class:`_Consumer`) as a batch: it emits them into the sink, feeds
the online auditor and counts the issued transactions.  The consumer
runs in one of two places.

* A :class:`~repro.obs.trace.JsonlStreamSink` (what ``trace record``
  writes through) is consumed by one forked process, so the
  simulation runs on one CPU while the JSONL encoding and the online
  audit run on another.  The batches cross a pipe, each flattened to
  one list of fields (cheaper to pickle than named tuples) and rebuilt
  on the other side.  After the run the caller sends the completed
  meta; the process writes the header and the spooled events, runs
  ``auditor.finish`` with a :class:`~repro.obs.jsonl.TraceReader` of
  the file for the second pass, and replies with the issued count and
  the verdict.  The process is daemonic and is joined before
  :func:`run_traced` returns or raises; it leaves through
  multiprocessing's ``os._exit``.
* Every other sink (the in-memory sink, plugin sinks) is consumed in
  the caller, batch by batch, because what it produces lives there.
  So is a stream sink on a platform without ``fork``, in a caller
  running other threads (``fork`` copies only the calling one), or
  when the process cannot start (with one ``RuntimeWarning``).

Errors keep their meaning in both places.  If the simulation raises,
the partial batch is consumed and the sink closed with the meta as it
is then - the pre-run header plus every event emitted so far - and
the simulation's exception propagates.  An interrupt
(``KeyboardInterrupt``) with a consumer process only closes the pipe:
the process closes the file without the batch in flight.  If the
consumer raises (an unencodable payload, say), the run stops at the
first batch boundary after the caller hears of it, and
:func:`run_traced` raises that error, with its type and message; the
file holds the pre-run header and the events before the failing one.
Audit errors found at a transaction's closure still wait for
``finish``.

Traced runs are never result-cached: the persistent cache stores
``SimulationResult`` objects only, and a trace is cheap to regenerate
deterministically from the spec.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.config import MachineConfig, TraceConfig
from repro.core.algorithms import build_algorithm
from repro.harness.parallel import RunSpec, _cached_source
from repro.obs.audit import TraceAuditor, Violation, auditor_for
from repro.obs.jsonl import WRITE_CHUNK, TraceReader, encode_event
from repro.obs.timeline import TimelineSample
from repro.obs.trace import (
    EventType,
    InMemorySink,
    JsonlStreamSink,
    TraceEvent,
    TraceSink,
    resolve_sink,
)
from repro.ring.topology import build_topology
from repro.sim.cores import DEFAULT_CORE, build_core
from repro.sim.system import RingMultiprocessor, SimulationResult

_ISSUE = EventType.ISSUE
_new_tuple = tuple.__new__

#: Fields per event in a flat batch.
_FIELDS = len(TraceEvent._fields)


@dataclass
class TracedRun:
    """A simulation result plus everything observed along the way.

    ``events`` holds the in-memory event list when the run used the
    default ``"memory"`` sink and is empty for streaming sinks (the
    events are on disk; ``meta["num_events"]`` still counts them).
    ``transactions`` counts the transactions issued (``issue``
    events; in a trace that audits clean, the distinct transaction
    ids), and ``violations`` is the audit's verdict (``None`` when not
    audited).
    """

    result: SimulationResult
    events: List[TraceEvent]
    samples: List[TimelineSample]
    meta: Dict[str, Any]
    transactions: int = 0
    violations: Optional[List[Violation]] = None

    @property
    def core(self) -> str:
        """The simulation core that ran (``"soa"`` or ``"object"``)."""
        return self.result.core

    def summary(self) -> Dict[str, float]:
        return self.result.summary()


class _Tee(TraceSink):
    """What the machine emits into: events are collected, and every
    :data:`~repro.obs.jsonl.WRITE_CHUNK` of them go to ``send`` as one
    batch.  ``events`` counts the events handed on (a count: a long
    run's events would grow memory with its length)."""

    def __init__(self, send: Callable[[List[TraceEvent]], None]) -> None:
        self._send = send
        self._batch: List[TraceEvent] = []
        self.events = 0

    def emit(self, event: TraceEvent) -> None:
        batch = self._batch
        batch.append(event)
        if len(batch) == WRITE_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Hand on the partial batch."""
        batch = self._batch
        if batch:
            self._batch = []
            self.events += len(batch)
            self._send(batch)


def _flat(events: List[TraceEvent]) -> List[Any]:
    """A batch as one flat list of fields: cheaper to pickle than a
    list of named tuples."""
    return list(chain.from_iterable(events))


def _events(flat: List[Any]) -> Iterator[TraceEvent]:
    """The events of a flat batch, rebuilt in order."""
    fields = iter(flat)
    return map(_new_tuple, repeat(TraceEvent), zip(*[fields] * _FIELDS))


class _Consumer:
    """The trace path's one per-event loop, called with each batch:
    every event goes to the sink and, when auditing, to the online
    auditor, and issued transactions are counted on the way."""

    def __init__(
        self, sink: TraceSink, auditor: Optional[TraceAuditor]
    ) -> None:
        self.sink = sink
        self.auditor = auditor
        self.issues = 0

    def __call__(self, events: Iterable[TraceEvent]) -> None:
        emit = self.sink.emit
        feed = self.auditor.feed if self.auditor is not None else None
        issues = 0
        for event in events:
            emit(event)
            if event.type is _ISSUE:
                issues += 1
            if feed is not None:
                feed(event)
        self.issues += issues

    def verdict(
        self, replay: Optional[Iterable[TraceEvent]]
    ) -> Optional[List[Violation]]:
        """The audit's violations (``None`` when not auditing);
        ``replay`` is the whole trace again, for late events."""
        if self.auditor is None:
            return None
        return self.auditor.finish(replay)


class _Worker:
    """The caller's end of the process that consumes a stream sink's
    batches (see the module docstring for the protocol).

    Batches go down the pipe as flat lists of fields; one
    ``(meta, reply)`` tuple ends them.  The process sends at most one
    message back: the consumer's exception as soon as it raises, or,
    when ``reply`` is true, the outcome of closing the file and
    finishing the audit.
    """

    def __init__(self, conn: Any, process: Any) -> None:
        self._conn = conn
        self._process = process

    @classmethod
    def start(
        cls, sink: JsonlStreamSink, consume: _Consumer
    ) -> Optional["_Worker"]:
        """Fork the consumer process and hand it ``sink``; ``None``
        (consume in the caller) without ``fork``, in a caller with
        other threads, or when the process cannot start."""
        if threading.active_count() > 1:
            # fork copies only this thread: a lock another one holds
            # would stay held in the child.
            return None
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            return None
        ends: List[Any] = []
        try:
            ends[:] = context.Pipe()
            conn, child_conn = ends
            process = context.Process(
                target=_serve, args=(child_conn, conn, consume), daemon=True
            )
            sink.hand_off(process.start)  # the process writes the file
        except (OSError, AssertionError) as exc:
            # A descriptor or process limit, or a daemonic caller (which
            # multiprocessing forbids children with an assertion).
            for end in ends:
                end.close()
            warnings.warn(
                "trace consumer process unavailable (%s); encoding and "
                "auditing in this process" % (exc,),
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        child_conn.close()
        return cls(conn, process)

    def send(self, batch: List[TraceEvent]) -> None:
        conn = self._conn
        try:
            conn.send(_flat(batch))
        except (pickle.PicklingError, TypeError, AttributeError):
            # A payload that does not pickle: raise what encoding it
            # raises, as the consumer would have.
            for event in batch:
                encode_event(event)
            raise
        if conn.poll():
            raise conn.recv()  # the consumer failed: the run stops

    def finish(self, meta: Dict[str, Any]) -> Tuple[int, Any]:
        """Send the completed meta and return ``(issues, verdict)``."""
        try:
            self._conn.send((meta, True))
            outcome = self._conn.recv()
        except EOFError:  # the process died without replying
            outcome = None
        finally:
            self.stop()
        if outcome is None:
            raise RuntimeError(
                "trace consumer process exited with code %s"
                % self._process.exitcode
            )
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def stop(self, meta: Optional[Dict[str, Any]] = None) -> None:
        """Have the process close the file with ``meta`` (without one,
        the pipe's EOF ends it with the header it was started with)
        and join it.  Idempotent."""
        conn = self._conn
        if conn.closed:
            return
        try:
            if meta is not None:
                conn.send((meta, False))
        except OSError:
            pass  # the process is gone: the join reaps it
        finally:
            conn.close()
            self._process.join()


def _serve(conn: Any, caller_conn: Any, consume: _Consumer) -> None:
    """The consumer process: consume batches until the end message,
    then close the sink with its meta and, if asked, reply with the
    issued count and the verdict."""
    # The caller's end, inherited: closed, so the caller closing its
    # own copy is this end's EOF.
    caller_conn.close()
    # An interrupt ends the caller, whose closed pipe ends this loop.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The inherited heap is the caller's: never collect (and so
    # finalize) any of it here, nor rescan it.
    gc.freeze()
    sink = consume.sink
    failed = reply = False
    try:
        while True:
            message = conn.recv()
            if type(message) is not list:
                meta, reply = message
                if not failed:  # else keep the pre-run header
                    sink.meta = meta
                break
            if not failed:
                try:
                    consume(_events(message))
                except Exception as exc:
                    failed = True
                    _reply(conn, exc)
    except (EOFError, OSError):
        pass  # the caller was interrupted: keep the pre-run header
    reply = reply and not failed
    try:
        sink.close()
        outcome: Any = (
            (consume.issues, consume.verdict(TraceReader(sink.path)))
            if reply
            else None
        )
    except Exception as exc:
        outcome = exc
    if reply:
        _reply(conn, outcome)


def _reply(conn: Any, outcome: Any) -> None:
    """Send the process's one message; an exception that does not
    pickle goes as a ``RuntimeError`` naming it."""
    try:
        data = pickle.dumps(outcome)
    except Exception:
        data = pickle.dumps(
            RuntimeError("%s: %s" % (type(outcome).__name__, outcome))
        )
    with contextlib.suppress(OSError):  # the caller is gone
        conn.send_bytes(data)


def walk_meta(machine: MachineConfig) -> Dict[str, Any]:
    """The trace header's walk field, derived from the exported rows
    of ``machine``'s topology.

    The auditor needs the walk to check per-segment conservation, so
    it is persisted with the trace rather than re-derived.  The flat
    ring writes nothing (the auditor's default cycle).  Any other
    topology whose rows all name the same successors writes that
    cycle as ``successors``; a path-dependent one writes every
    requester's successor row as ``successor_rows``.
    """
    if machine.topology.kind == "ring":
        return {}
    rows = [row.successor for row in build_topology(machine).export_tables()]
    if all(row == rows[0] for row in rows):
        return {"successors": rows[0]}
    return {"successor_rows": rows}


def run_traced(
    algorithm: str,
    workload: str,
    predictor: Optional[str] = None,
    accesses_per_core: int = 0,
    seed: int = 0,
    warmup_fraction: float = 0.0,
    check_invariants: bool = False,
    sample_window: int = 0,
    config: Optional[MachineConfig] = None,
    sink: Union[str, TraceSink] = "memory",
    topology: Optional[str] = None,
    num_cmps: int = 0,
    think_scale: float = 1.0,
    audit: bool = False,
) -> TracedRun:
    """Run one cell with tracing on and return the full observation.

    Args:
        algorithm: algorithm name (registry kind ``algorithm``).
        workload: workload source spec (registry kind ``workload``
            name, or a scheme spec such as ``file:trace.jsonl``).
        predictor: named predictor override (Section 5.2 names).
        accesses_per_core: trace length (0 = workload default).
        seed: workload seed override (0 = workload default).
        warmup_fraction: measurement warmup window (events emitted
            during warmup are traced too, phase-tagged by time).
        check_invariants: also enable the simulator's synchronous
            per-line protocol checks (audit mode runs with this on).
        sample_window: simulated cycles between metrics-timeline
            samples (0 = no timeline; a timeline runs on the object
            core).
        config: full machine config override, as in
            :func:`~repro.harness.experiments.run_experiment`.
        sink: the trace sink, or its spec (registry kind ``sink``).
            It gets the run metadata as ``sink.meta`` (file-backed
            sinks write it as their header line) and is closed here;
            a :class:`~repro.obs.trace.JsonlStreamSink` is handed to
            the consumer process, which writes the file.
        topology: snoop-topology override (registry kind
            ``topology``), as in
            :func:`~repro.harness.experiments.run_experiment`.
        num_cmps: machine-span override (0 = the workload's own
            geometry).
        think_scale: injection-rate re-pacing of synthetic workloads
            (1.0 = native pacing), as in
            :func:`~repro.harness.experiments.run_experiment`.
        audit: also feed every event to :func:`auditor_for` the run's
            metadata; :attr:`TracedRun.violations` holds the verdict.
            A transaction that gets an event after it closed is
            re-audited from the sink's events or file.
    """
    trace_sink = resolve_sink(sink) if isinstance(sink, str) else sink
    # Closed however the run ends; a file sink writes its header then.
    with trace_sink:
        spec = RunSpec(
            algorithm=algorithm,
            workload=workload,
            predictor=predictor,
            accesses_per_core=accesses_per_core,
            seed=seed,
            warmup_fraction=warmup_fraction,
            config=config,
            topology=topology,
            num_cmps=num_cmps,
            think_scale=think_scale,
        )
        source = _cached_source(
            workload, accesses_per_core, seed, num_cmps, think_scale
        )
        machine = spec.resolve_config(source.cores_per_cmp, source.num_cmps)
        machine = machine.replace(
            tracing=TraceConfig(enabled=True, sample_window=sample_window),
            check_invariants=machine.check_invariants or check_invariants,
        )
        # Resolvable pre-run metadata; the result-dependent fields are
        # added after the run, before the sink closes and writes its header.
        meta: Dict[str, Any] = {
            "algorithm": build_algorithm(algorithm).name,
            "workload": source.name,
            "predictor": predictor,
            "predictor_kind": machine.predictor.kind,
            "num_cmps": machine.num_cmps,
            "cores_per_cmp": machine.cores_per_cmp,
            "accesses_per_core": accesses_per_core,
            "seed": seed,
            "warmup_fraction": warmup_fraction,
            "topology": machine.topology.kind,
        }
        if think_scale != 1.0:
            # Keyed only when re-paced so native-pacing trace headers stay
            # byte-identical to pre-axis captures.
            meta["think_scale"] = think_scale
        meta.update(walk_meta(machine))
        trace_sink.meta = meta
        auditor = auditor_for(meta) if audit else None
        consume = _Consumer(trace_sink, auditor)
        worker = (
            _Worker.start(trace_sink, consume)
            if type(trace_sink) is JsonlStreamSink
            else None
        )
        tee = _Tee(consume if worker is None else worker.send)
        try:
            system = build_core(
                DEFAULT_CORE,
                machine,
                build_algorithm(algorithm),
                source,
                warmup_fraction=warmup_fraction,
                trace_sink=tee,
            )
            result = system.run()
            tee.flush()
        except BaseException as exc:
            interrupted = not isinstance(exc, Exception)
            if worker is None or not interrupted:
                # The partial batch reaches the sink; the run's own
                # error is the one raised.
                with contextlib.suppress(Exception):
                    tee.flush()
            if worker is not None:
                worker.stop(None if interrupted else meta)
            raise
        meta["algorithm"] = result.algorithm
        meta["workload"] = result.workload
        meta["exec_time"] = result.exec_time
        meta["num_events"] = tee.events
        if worker is not None:
            transactions, violations = worker.finish(meta)
    samples: List[TimelineSample] = []
    if isinstance(system, RingMultiprocessor) and system.timeline is not None:
        samples = system.timeline.samples
    events: List[TraceEvent] = []
    if worker is None:
        replay: Optional[Iterable[TraceEvent]] = None
        if isinstance(trace_sink, InMemorySink):
            events = replay = trace_sink.events
        elif isinstance(trace_sink, JsonlStreamSink):
            replay = TraceReader(trace_sink.path)
        transactions = consume.issues
        violations = consume.verdict(replay)
    return TracedRun(
        result=result,
        events=events,
        samples=samples,
        meta=meta,
        transactions=transactions,
        violations=violations,
    )
