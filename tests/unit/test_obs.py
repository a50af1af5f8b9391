"""Unit tests for the observability layer (repro.obs).

Sinks, JSONL round-trips, filtering/rendering, the metrics timeline,
and - most importantly - the per-transaction lifecycle auditors,
exercised against hand-built traces that violate each rule in turn.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
from multiprocessing.process import BaseProcess

import pytest

from repro.config import TraceConfig, default_machine
from repro.core.algorithms import build_algorithm
from repro.obs.audit import TraceAuditor, Violation, auditor_for
from repro.obs.jsonl import (
    TraceReader,
    event_from_json,
    event_to_json,
    read_trace,
    write_trace,
)
from repro.obs.render import filter_events, render_timeline, select_events
from repro.obs import runner
from repro.obs.runner import run_traced
from repro.obs.trace import (
    NO_TXN,
    EventType,
    InMemorySink,
    JsonlStreamSink,
    TraceEvent,
    TraceSink,
)
from repro.registry import REGISTRY
from repro.ring.topology import ring_successors
from repro.sim.soa import SoaRingMultiprocessor
from repro.sim.system import RingMultiprocessor
from repro.workloads.synthetic import SharingProfile
from tests.unit.test_topology import _DynamicTopology

# ----------------------------------------------------------------------
# Trace-building helpers

ADDRESS = 0x2A40


def _ev(time, type_, txn=1, node=0, address=ADDRESS, **data):
    return TraceEvent(time, type_, txn, node, address, data)


def _clean_txn(txn=1, node=0, t0=100, num_cmps=2):
    """A minimal valid read transaction on a ``num_cmps``-node ring."""
    events = [
        _ev(t0, EventType.ISSUE, txn, node,
            kind="read", core=0, squashed=False)
    ]
    time, current = t0, node
    for _ in range(num_cmps):
        to = (current + 1) % num_cmps
        events.append(
            _ev(time, EventType.HOP, txn, current,
                to=to, arrival=time + 39, mode="split",
                satisfied=False, squashed=False)
        )
        time += 39
        current = to
    events.append(
        _ev(time + 400, EventType.FILL, txn, node,
            source="memory", version=0)
    )
    events.append(
        _ev(time + 400, EventType.RETIRE, txn, node,
            kind="read", squashed=False)
    )
    return events


def _audit(events, num_cmps=2):
    return TraceAuditor(num_cmps=num_cmps).audit(events)


def _rules(violations):
    return [violation.rule for violation in violations]


# ----------------------------------------------------------------------
# Sinks

def test_in_memory_sink_collects_in_order():
    sink = InMemorySink()
    events = _clean_txn()
    for event in events:
        sink.emit(event)
    assert sink.events == events
    sink.close()
    sink.close()  # idempotent


def test_jsonl_stream_sink_round_trips(tmp_path):
    path = tmp_path / "trace.jsonl"
    events = _clean_txn()
    with JsonlStreamSink(str(path), meta={"num_cmps": 2}) as sink:
        for event in events:
            sink.emit(event)
    meta, loaded = read_trace(str(path))
    assert meta == {"num_cmps": 2}
    assert loaded == events


def test_jsonl_stream_sink_rejects_emit_after_close(tmp_path):
    sink = JsonlStreamSink(str(tmp_path / "trace.jsonl"))
    sink.close()
    with pytest.raises(ValueError):
        sink.emit(_clean_txn()[0])


def test_jsonl_stream_sink_opens_its_file_at_once(tmp_path):
    with pytest.raises(OSError):
        JsonlStreamSink(str(tmp_path / "missing" / "trace.jsonl"))


def test_jsonl_stream_sink_writes_the_meta_it_holds_at_close(tmp_path):
    path = tmp_path / "trace.jsonl"
    events = _clean_txn()
    with JsonlStreamSink(str(path)) as sink:
        for event in events:
            sink.emit(event)
        sink.meta = {"num_cmps": 2, "num_events": len(events)}
    assert read_trace(str(path)) == (sink.meta, events)
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


def _traced_machine(sink=None, sink_spec="memory", core=RingMultiprocessor):
    config = default_machine(algorithm="lazy", cores_per_cmp=1).replace(
        tracing=TraceConfig(enabled=True, sink=sink_spec)
    )
    profile = SharingProfile(
        name="sinks", num_cores=8, cores_per_cmp=1, accesses_per_core=20
    )
    return core(config, build_algorithm("lazy"), profile, trace_sink=sink)


def test_machine_leaves_the_sink_it_was_handed_open(tmp_path):
    """The caller owns a sink it passes in: the run does not close it,
    so metadata set after the run reaches the header."""
    path = tmp_path / "trace.jsonl"
    sink = JsonlStreamSink(str(path), meta={"phase": "before"})
    result = _traced_machine(sink).run()
    sink.meta = {"phase": "after", "exec_time": result.exec_time}
    sink.close()
    meta, events = read_trace(str(path))
    assert meta == {"phase": "after", "exec_time": result.exec_time}
    assert events


def test_machine_closes_the_sink_it_resolved(tmp_path):
    path = tmp_path / "trace.jsonl"
    system = _traced_machine(sink_spec="jsonl:%s" % path)
    system.run()
    with pytest.raises(ValueError, match="closed"):
        system.trace.emit(_clean_txn()[0])
    _meta, events = read_trace(str(path))
    assert events


def test_soa_machine_leaves_the_sink_it_was_handed_open(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlStreamSink(str(path), meta={"phase": "before"})
    result = _traced_machine(sink, core=SoaRingMultiprocessor).run()
    sink.meta = {"phase": "after", "exec_time": result.exec_time}
    sink.close()
    meta, events = read_trace(str(path))
    assert meta == {"phase": "after", "exec_time": result.exec_time}
    assert events


def test_soa_machine_closes_the_sink_it_resolved(tmp_path):
    path = tmp_path / "trace.jsonl"
    system = _traced_machine(
        sink_spec="jsonl:%s" % path, core=SoaRingMultiprocessor
    )
    system.run()
    with pytest.raises(ValueError, match="closed"):
        system.trace.emit(_clean_txn()[0])
    _meta, events = read_trace(str(path))
    assert events


# ----------------------------------------------------------------------
# run_traced's core


def test_run_traced_runs_soa_inside_its_envelope():
    traced = run_traced(
        "criticality",
        "specjbb",
        accesses_per_core=40,
        check_invariants=True,
        audit=True,
    )
    assert traced.core == "soa"
    assert traced.violations == []
    assert traced.events and traced.samples == []


def test_run_traced_runs_object_for_a_timeline():
    kwargs = dict(accesses_per_core=40, check_invariants=True, audit=True)
    traced = run_traced("criticality", "specjbb", sample_window=2000, **kwargs)
    assert traced.core == "object"
    assert traced.samples
    assert traced.violations == []
    # The core changes the speed, not the trace.
    assert traced.events == run_traced("criticality", "specjbb", **kwargs).events


def test_sinks_resolve_through_registry():
    from repro.registry import REGISTRY

    assert "memory" in REGISTRY.names("sink")
    assert "jsonl" in REGISTRY.names("sink")
    assert isinstance(REGISTRY.create("sink", "memory"), InMemorySink)


# ----------------------------------------------------------------------
# run_traced's consumer: a forked process for a stream sink

#: A golden cell (tests/golden/summaries.json) at the golden scale,
#: recorded as ``trace record --check-invariants --audit`` records.
CELL = ("lazy", "specweb")
CELL_OPTIONS = dict(
    accesses_per_core=200,
    warmup_fraction=0.35,
    check_invariants=True,
    audit=True,
)


class _Relay(TraceSink):
    """Stands between a machine and run_traced's tee: ``rewrite``
    maps the emission count and event to the events passed on."""

    def __init__(self, inner, rewrite):
        self.inner = inner
        self.rewrite = rewrite
        self.count = 0

    def emit(self, event):
        self.count += 1
        for out in self.rewrite(self.count, event):
            self.inner.emit(out)


@pytest.fixture
def relay(monkeypatch):
    """Route every run_traced machine's events through a ``_Relay``."""
    build_core = runner.build_core

    def install(rewrite):
        def build(*args, trace_sink, **kwargs):
            return build_core(
                *args, trace_sink=_Relay(trace_sink, rewrite), **kwargs
            )

        monkeypatch.setattr(runner, "build_core", build)

    return install


@pytest.fixture
def oddfirst():
    """The path-dependent test topology, registered as ``oddfirst``."""
    REGISTRY.register(
        "topology",
        "oddfirst",
        lambda config: _DynamicTopology(config.num_cmps),
    )
    yield
    REGISTRY.unregister("topology", "oddfirst")


def test_run_traced_records_a_path_dependent_topology_on_soa(
    tmp_path, monkeypatch, oddfirst
):
    kwargs = dict(
        accesses_per_core=60,
        topology="oddfirst",
        check_invariants=True,
        audit=True,
    )
    path = tmp_path / "oddfirst.jsonl"
    recorded = run_traced(
        "lazy", "specjbb", sink=JsonlStreamSink(str(path)), **kwargs
    )
    assert recorded.core == "soa"
    assert recorded.violations == []
    rows = recorded.meta["successor_rows"]
    assert "successors" not in recorded.meta
    assert rows[0][:2] == [1, 3] and rows[3][3] == 1

    # The object core's events under the same header: the same file.
    monkeypatch.setattr(runner, "DEFAULT_CORE", "object")
    reference = run_traced("lazy", "specjbb", **kwargs)
    assert reference.core == "object"
    written = tmp_path / "object.jsonl"
    write_trace(str(written), reference.events, reference.meta)
    assert path.read_bytes() == written.read_bytes()

    # A hop retargeted to its flat-ring successor breaks the row of
    # the requester that issued it.
    meta, events = read_trace(str(path))
    assert auditor_for(meta).audit(events) == []
    ring = ring_successors(meta["num_cmps"])
    issuer = {e.txn: e.node for e in events if e.type is EventType.ISSUE}
    index, hop = next(
        (i, e)
        for i, e in enumerate(events)
        if e.type is EventType.HOP
        and e.data["to"] != ring[e.node]
    )
    assert rows[issuer[hop.txn]][hop.node] == hop.data["to"]
    events[index] = hop._replace(data={**hop.data, "to": ring[hop.node]})
    violations = auditor_for(meta).audit(events)
    assert [(v.txn, v.rule) for v in violations] == [
        (hop.txn, "conservation")
    ]


def test_auditor_checks_each_hop_against_its_requesters_row():
    # Node 0 walks 0 -> 2 -> 1 -> 0; nodes 1 and 2 walk the other way.
    rows = [[2, 0, 1], [1, 2, 0], [1, 2, 0]]
    auditor = TraceAuditor(num_cmps=3, successor_rows=rows)

    def txn(txn, walk):
        events = _clean_txn(txn=txn, node=walk[0], num_cmps=3)
        hops = [e for e in events if e.type is EventType.HOP]
        for hop, upstream, node in zip(hops, walk, walk[1:]):
            events[events.index(hop)] = hop._replace(
                node=upstream, data={**hop.data, "to": node}
            )
        return events

    assert auditor.audit(txn(1, [0, 2, 1, 0]) + txn(2, [1, 2, 0, 1])) == []
    # Node 1's direction, issued by node 0, breaks node 0's row.
    violations = auditor.audit(txn(3, [0, 1, 2, 0]))
    assert _rules(violations) == ["conservation"]
    assert "successor of 0 is 2" in violations[0].message


@pytest.fixture
def starts(monkeypatch):
    """Counts the processes started; none may be left afterwards."""
    count = []
    start = BaseProcess.start

    def counted(self):
        count.append(self)
        return start(self)

    monkeypatch.setattr(BaseProcess, "start", counted)
    yield count
    assert multiprocessing.active_children() == []


def _record(path):
    return run_traced(*CELL, sink=JsonlStreamSink(str(path)), **CELL_OPTIONS)


def _in_memory(sink="memory"):
    return run_traced(*CELL, sink=sink, **CELL_OPTIONS)


def _assert_same_run(tmp_path, streamed, path, reference):
    written = tmp_path / "reference.jsonl"
    write_trace(str(written), reference.events, reference.meta)
    assert path.read_bytes() == written.read_bytes()
    assert streamed.violations == reference.violations
    assert streamed.transactions == reference.transactions
    assert streamed.meta == reference.meta
    assert streamed.events == []


def test_stream_sink_run_matches_the_memory_sink_run(tmp_path, starts):
    path = tmp_path / "trace.jsonl"
    streamed = _record(path)
    assert len(starts) == 1  # one consumer process
    reference = _in_memory()
    assert len(starts) == 1  # a memory sink is consumed in the caller
    assert streamed.violations == []
    assert streamed.meta["num_events"] == len(reference.events) > 1000
    _assert_same_run(tmp_path, streamed, path, reference)


def test_consumer_in_the_caller_when_the_process_cannot_start(
    tmp_path, monkeypatch
):
    def refuse(self):
        raise OSError("no processes here")

    monkeypatch.setattr(BaseProcess, "start", refuse)
    path = tmp_path / "trace.jsonl"
    with pytest.warns(RuntimeWarning, match="no processes here") as caught:
        streamed = _record(path)
    assert len(caught) == 1
    assert multiprocessing.active_children() == []
    _assert_same_run(tmp_path, streamed, path, _in_memory())


def test_consumer_in_the_caller_without_fork(tmp_path, monkeypatch, starts):
    get_context = multiprocessing.get_context

    def no_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    path = tmp_path / "trace.jsonl"
    streamed = _record(path)
    assert starts == []
    _assert_same_run(tmp_path, streamed, path, _in_memory())


def test_consumer_in_the_caller_beside_other_threads(tmp_path, starts):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        path = tmp_path / "trace.jsonl"
        streamed = _record(path)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert starts == []
    _assert_same_run(tmp_path, streamed, path, _in_memory())


def test_a_stream_sink_with_events_keeps_them_across_the_fork(
    tmp_path, starts
):
    """Events emitted into the sink before the run, spooled or still
    in its line buffer, reach the file once, and the run's follow."""
    before = _clean_txn(txn=10**6) * 300
    path = tmp_path / "trace.jsonl"
    sink = JsonlStreamSink(str(path))
    for event in before:
        sink.emit(event)
    streamed = run_traced(*CELL, sink=sink, **CELL_OPTIONS)
    assert len(starts) == 1
    reference = _in_memory()
    written = tmp_path / "reference.jsonl"
    write_trace(str(written), before + reference.events, streamed.meta)
    assert path.read_bytes() == written.read_bytes()


def _fail_on_check(monkeypatch, calls, error):
    """Make the Nth per-retire invariant check raise ``error``; clear
    the returned list of calls to count again."""
    from repro.coherence import protocol

    check_line = protocol.ProtocolTables.check_line
    seen = []

    def failing(states, address=0):
        seen.append(address)
        if len(seen) == calls:
            raise error
        return check_line(states, address)

    monkeypatch.setattr(
        protocol.ProtocolTables, "check_line", staticmethod(failing)
    )
    return seen


def test_a_failing_run_leaves_the_partial_file(tmp_path, monkeypatch, starts):
    """The simulation's error propagates, and the file holds the pre-run
    header and every event emitted before it: up to the retirement
    whose invariant check raised, mid-batch."""
    from repro.coherence.protocol import CoherenceError

    full = _in_memory().events
    calls = _fail_on_check(monkeypatch, 40, CoherenceError("planted"))
    path = tmp_path / "trace.jsonl"
    with pytest.raises(CoherenceError, match="^planted$"):
        _record(path)
    assert len(starts) == 1
    meta, events = read_trace(str(path))
    assert "exec_time" not in meta and "num_events" not in meta
    assert meta["algorithm"] == CELL[0]
    assert 0 < len(events) < len(full)
    assert events == full[: len(events)]
    assert events[-1].type is EventType.RETIRE
    # The same run into a memory sink sees the same events.
    sink = InMemorySink()
    calls.clear()
    with pytest.raises(CoherenceError, match="^planted$"):
        _in_memory(sink)
    assert sink.events == events
    assert sink.meta == meta


def test_an_interrupted_run_joins_its_process(tmp_path, monkeypatch, starts):
    full = _in_memory().events
    _fail_on_check(monkeypatch, 40, KeyboardInterrupt())
    path = tmp_path / "trace.jsonl"
    with pytest.raises(KeyboardInterrupt):
        _record(path)
    assert len(starts) == 1
    # The batch in flight is dropped; the file is still a valid trace.
    meta, events = read_trace(str(path))
    assert "num_events" not in meta
    assert events == full[: len(events)]


@pytest.mark.parametrize("from_end", [False, True])
def test_an_unencodable_payload_raises_the_encoders_error(
    tmp_path, relay, starts, from_end
):
    """Mid-run, or in the last batch (which the process gets only
    after the run): the encoder's error, and the events before it
    under the pre-run header."""
    poison = {"bad": {1, 2}}
    full = _in_memory().events
    at = len(full) - 5 if from_end else 3000

    def rewrite(count, event):
        return [event._replace(data=poison) if count == at else event]

    relay(rewrite)
    path = tmp_path / "trace.jsonl"
    with pytest.raises(TypeError) as excinfo:
        _record(path)
    with pytest.raises(TypeError) as expected:
        json.dumps(poison)
    assert str(excinfo.value) == str(expected.value)
    assert len(starts) == 1
    meta, events = read_trace(str(path))
    assert "num_events" not in meta
    assert events == full[: at - 1]


def test_a_late_event_is_reaudited_from_the_file(tmp_path, relay, starts):
    """An event for a transaction that closed long before reaches the
    consumer process, whose second pass reads the file back."""
    from repro.obs.audit import auditor_for

    retired = []

    def rewrite(count, event):
        if event.type is EventType.RETIRE and not retired:
            retired.append(event)
        if count == 2000:
            return [event, retired[0]]
        return [event]

    relay(rewrite)
    path = tmp_path / "trace.jsonl"
    streamed = _record(path)
    retired.clear()
    reference = _in_memory()
    _assert_same_run(tmp_path, streamed, path, reference)
    assert "lifecycle" in _rules(streamed.violations)
    meta, events = read_trace(str(path))
    assert streamed.violations == auditor_for(meta).audit(events)
    # Online, the duplicate arrives after its transaction closed.
    auditor = auditor_for(meta)
    for event in events:
        auditor.feed(event)
    with pytest.raises(ValueError, match="after they closed"):
        auditor.finish()


# ----------------------------------------------------------------------
# JSONL format

def test_event_json_round_trip():
    event = _ev(7, EventType.SNOOP, txn=3, node=5,
                kind="read", primitive="forward", snoop_done=62,
                supplied=False)
    assert event_from_json(event_to_json(event)) == event


def test_write_read_trace_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    events = _clean_txn() + [
        _ev(900, EventType.DOWNGRADE, NO_TXN, 1, writeback=True)
    ]
    count = write_trace(path, events, meta={"algorithm": "lazy"})
    assert count == len(events)
    meta, loaded = read_trace(path)
    assert meta["algorithm"] == "lazy"
    assert loaded == events


def test_read_trace_reports_malformed_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"meta": {}}\nnot json at all\n')
    with pytest.raises(ValueError, match=r":2:"):
        read_trace(str(path))


def test_read_trace_reports_malformed_event(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 0, "ev": "no-such-event", "txn": 1, '
                    '"node": 0, "addr": 0, "data": {}}\n')
    with pytest.raises(ValueError, match=r":1:"):
        read_trace(str(path))


@pytest.mark.parametrize("line", ["5", "[1, 2]"])
def test_read_trace_rejects_non_object_line(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"meta": {}}\n' + line + "\n")
    with pytest.raises(ValueError, match=r":2: malformed event"):
        read_trace(str(path))


@pytest.mark.parametrize("data", ["7", "null"])
def test_read_trace_rejects_non_object_data(tmp_path, data):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"meta": {}}\n{"t": 0, "ev": "issue", "txn": 1, '
                    '"node": 0, "addr": 0, "data": %s}\n' % data)
    with pytest.raises(ValueError, match=r":2: malformed event"):
        read_trace(str(path))


# ----------------------------------------------------------------------
# Filtering and rendering

def test_trace_reader_reads_the_header_then_streams(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    events = _clean_txn()
    write_trace(path, events, meta={"num_cmps": 2})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{not json}\n")
    reader = TraceReader(path)  # the bad last line is not read yet
    assert reader.meta == {"num_cmps": 2}
    seen = []
    with pytest.raises(ValueError, match=r"trace\.jsonl:%d: malformed JSON"
                       % (len(events) + 2)):
        for event in reader:
            seen.append(event)
    assert seen == events
    assert next(iter(reader)) == events[0]  # each pass starts over


def test_filter_by_address_and_txn():
    txn_a = _clean_txn(txn=1)
    txn_b = [event._replace(address=0x9999) for event in _clean_txn(txn=2)]
    events = txn_a + txn_b
    assert filter_events(events, address=ADDRESS) == txn_a
    assert filter_events(events, txn=2) == txn_b
    assert filter_events(events, address=ADDRESS, txn=2) == []


def test_filter_by_node_keeps_whole_transactions():
    events = _clean_txn(txn=1, node=0) + [
        _ev(900, EventType.DOWNGRADE, NO_TXN, 1, writeback=False)
    ]
    selected = filter_events(events, node=1)
    # Node 1 saw one hop of txn 1, so the whole transaction is kept,
    # plus the machine event at node 1.
    assert {event.txn for event in selected} == {1, NO_TXN}
    assert len([e for e in selected if e.txn == 1]) == len(events) - 1


def test_render_timeline_groups_and_elides():
    events = _clean_txn(txn=1) + _clean_txn(txn=2) + [
        _ev(900, EventType.DOWNGRADE, NO_TXN, 1, writeback=False)
    ]
    text = render_timeline(events, limit=1)
    assert "txn 1  read" in text
    assert "txn 2" not in text
    assert "machine events:" in text
    assert "1 more transaction(s) elided" in text


def test_render_timeline_empty():
    assert "no events match" in render_timeline([])


def _shuffled_trace():
    """Interleaved transactions whose ids first appear out of order,
    plus machine events on two nodes."""
    groups = {txn: _clean_txn(txn=txn, node=txn % 2) for txn in (5, 2, 7, 1, 4)}
    events = []
    for step in range(len(groups[1])):
        for txn in groups:
            events.append(groups[txn][step])
        if step == 1:
            events.append(
                _ev(500, EventType.DOWNGRADE, NO_TXN, step, writeback=False)
            )
    events.append(_ev(900, EventType.DOWNGRADE, NO_TXN, 0, writeback=True))
    return events


@pytest.mark.parametrize("limit", [None, -1, 0, 1, 2, 3, 5, 9])
@pytest.mark.parametrize(
    "criteria",
    [{}, {"txn": 4}, {"txn": 99}, {"node": 1}, {"node": 0},
     {"address": ADDRESS, "node": 1}],
    ids=repr,
)
def test_select_events_prints_what_filter_events_prints(criteria, limit):
    events = _shuffled_trace()
    selected = filter_events(events, **criteria)
    selection = select_events(events, limit=limit, **criteria)
    assert selection.matched == len(selected)
    assert selection.total == len(events)
    assert render_timeline(
        selection.events, limit=limit, elided=selection.elided
    ) == render_timeline(selected, limit=limit)
    if limit is not None and limit >= 0:
        kept = {event.txn for event in selection.events if event.txn >= 0}
        assert len(kept) <= limit


# ----------------------------------------------------------------------
# Auditor: clean traces

def test_audit_clean_txn_passes():
    assert _audit(_clean_txn()) == []


def test_audit_ignores_machine_events():
    events = _clean_txn() + [
        _ev(900, EventType.DOWNGRADE, NO_TXN, 1, writeback=True)
    ]
    assert _audit(events) == []


def test_feed_then_finish_is_audit_and_starts_over():
    auditor = TraceAuditor(num_cmps=2)
    for event in _clean_txn(txn=1) + _clean_txn(txn=2, t0=900):
        auditor.feed(event)
    assert auditor.transactions == 2
    assert auditor.finish() == []
    assert auditor.transactions == 0
    broken = [e for e in _clean_txn() if e.type is not EventType.FILL]
    for event in broken:
        auditor.feed(event)
    assert auditor.finish() == _audit(broken) != []


def test_late_event_is_reaudited_from_the_trace():
    events = _clean_txn()
    events.append(events[-1])  # the retirement again, after closure
    auditor = TraceAuditor(num_cmps=2)
    for event in events:
        auditor.feed(event)
    with pytest.raises(ValueError, match="after they closed"):
        auditor.finish()
    expected = [Violation(1, "lifecycle", events[-1].time,
                          "expected exactly 1 retire, saw 2")]
    assert _audit(events) == expected
    # A one-shot iterator is listed so the second pass can happen.
    assert _audit(iter(events)) == expected


def test_closure_error_waits_for_the_whole_transaction():
    events = _clean_txn()
    hop = events[1]
    events[1] = hop._replace(
        data={k: v for k, v in hop.data.items() if k != "to"}
    )
    # Closed at its retirement, the transaction's two hops reach the
    # per-segment check, which needs every hop's "to".
    with pytest.raises(KeyError):
        _audit(events)
    # A third hop after retirement: a batch audit stops at the hop
    # count, so the closure-time error must not surface.
    events.append(hop._replace(time=5000))
    assert _rules(_audit(events)) == ["lifecycle", "conservation"]


def test_audit_clean_squashed_txn_passes():
    # The conflicting in-flight write that justifies the squash (the
    # serialization sweep checks squashes are never gratuitous).
    blocker = [
        _ev(0, EventType.ISSUE, txn=2, node=1,
            kind="write", core=2, squashed=False),
        _ev(0, EventType.HOP, txn=2, node=1, to=0, arrival=39,
            mode="split", satisfied=False, squashed=False),
        _ev(39, EventType.HOP, txn=2, node=0, to=1, arrival=78,
            mode="split", satisfied=False, squashed=False),
        _ev(500, EventType.FILL, txn=2, node=1,
            source="memory", version=1),
        _ev(500, EventType.RETIRE, txn=2, node=1,
            kind="write", squashed=False),
    ]
    events = blocker[:3] + [
        _ev(1, EventType.ISSUE, kind="read", core=0, squashed=True),
        _ev(1, EventType.HOP, node=0, to=1, arrival=40, mode="combined",
            satisfied=False, squashed=True),
        _ev(40, EventType.HOP, node=1, to=0, arrival=79, mode="combined",
            satisfied=False, squashed=True),
        _ev(79, EventType.SQUASH),
        _ev(79, EventType.RETIRE, kind="read", squashed=True),
        _ev(279, EventType.RETRY),
    ] + blocker[3:]
    assert _audit(events) == []


# ----------------------------------------------------------------------
# Auditor: each rule violated in turn

def test_audit_missing_retire():
    events = [e for e in _clean_txn() if e.type is not EventType.RETIRE]
    assert "lifecycle" in _rules(_audit(events))


def test_audit_double_issue():
    events = _clean_txn()
    events.insert(1, events[0])
    assert "lifecycle" in _rules(_audit(events))


def test_audit_event_after_retirement():
    events = _clean_txn()
    events.append(_ev(2000, EventType.FILL, source="memory", version=0))
    assert "lifecycle" in _rules(_audit(events))


def test_audit_retire_before_issue():
    events = _clean_txn(t0=100)
    retire = events[-1]
    events[-1] = retire._replace(time=50)
    assert "time" in _rules(_audit(events))


def test_audit_wrong_hop_count():
    events = [
        e
        for e in _clean_txn()
        if not (e.type is EventType.HOP and e.node == 1)
    ]
    violations = _audit(events)
    assert _rules(violations) == ["conservation"]
    assert "crossed 1 segments" in violations[0].message


def test_audit_hop_teleport():
    events = _clean_txn(num_cmps=4)
    hops = [e for e in events if e.type is EventType.HOP]
    index = events.index(hops[1])
    events[index] = hops[1]._replace(data={**hops[1].data, "to": 3})
    assert "conservation" in _rules(_audit(events, num_cmps=4))


def test_audit_issue_outside_the_ring():
    events = [
        e._replace(node=5) if e.node == 0 else e
        for e in _clean_txn(num_cmps=2)
    ]
    violations = _audit(events)
    assert _rules(violations) == ["conservation"]
    assert "outside the 2-node ring" in violations[0].message


def test_audit_snoop_then_forward_must_recombine():
    events = _clean_txn()
    hops = [e for e in events if e.type is EventType.HOP]
    snoop = _ev(hops[1].time, EventType.SNOOP, node=hops[1].node,
                kind="read", primitive="snoop_then_forward",
                snoop_done=hops[1].time + 55, supplied=False)
    events.insert(events.index(hops[1]), snoop)
    # The hop after a snoop_then_forward snoop is "split", not
    # "combined": the primitive illegally emitted a separate reply.
    violations = _audit(events)
    assert "recombination" in _rules(violations)


def test_audit_single_supplier_invariant():
    events = _clean_txn()
    supply = _ev(150, EventType.SUPPLY, node=1, kind="read",
                 form="reply", version=0, data_arrival=300)
    events.insert(2, supply)
    events.insert(3, supply._replace(node=0))
    assert "supply" in _rules(_audit(events))


def test_audit_no_snoop_after_combined_supply():
    events = _clean_txn()
    supply = _ev(150, EventType.SUPPLY, node=1, kind="read",
                 form="combined", version=0, data_arrival=300)
    late_snoop = _ev(160, EventType.SNOOP, node=1, kind="read",
                     primitive="forward_then_snoop", snoop_done=215,
                     supplied=False)
    events.insert(2, supply)
    events.insert(3, late_snoop)
    assert "supply" in _rules(_audit(events))


@pytest.mark.parametrize(
    "kind,prediction,truth,expect_violation",
    [
        ("subset", True, False, True),    # false positive forbidden
        ("subset", False, True, False),   # false negative allowed
        ("superset", False, True, True),  # false negative forbidden
        ("superset", True, False, False),  # false positive allowed
        ("exact", True, False, True),
        ("exact", False, True, True),
        ("perfect", True, False, True),
        ("none", True, False, False),     # no guarantee to break
    ],
)
def test_audit_predictor_guarantees(kind, prediction, truth,
                                    expect_violation):
    events = _clean_txn()
    lookup = _ev(150, EventType.PREDICTOR, node=1, kind=kind,
                 prediction=prediction, truth=truth)
    events.insert(2, lookup)
    rules = _rules(_audit(events))
    assert ("predictor" in rules) == expect_violation


def test_audit_squashed_txn_must_not_fill():
    events = [
        _ev(0, EventType.ISSUE, kind="read", core=0, squashed=True),
        _ev(0, EventType.HOP, node=0, to=1, arrival=39, mode="combined",
            satisfied=False, squashed=True),
        _ev(39, EventType.HOP, node=1, to=0, arrival=78, mode="combined",
            satisfied=False, squashed=True),
        _ev(50, EventType.FILL, source="memory", version=0),
        _ev(78, EventType.SQUASH),
        _ev(78, EventType.RETIRE, kind="read", squashed=True),
        _ev(278, EventType.RETRY),
    ]
    assert "squash" in _rules(_audit(events))


def test_audit_non_squashed_txn_must_fill_once():
    events = [
        e for e in _clean_txn() if e.type is not EventType.FILL
    ]
    assert "fill" in _rules(_audit(events))


def test_audit_non_squashed_txn_must_not_retry():
    events = _clean_txn()
    events.append(_ev(2000, EventType.RETRY))
    assert "squash" in _rules(_audit(events))


def test_violation_str_mentions_rule_and_txn():
    text = str(Violation(txn=7, rule="fill", time=42, message="boom"))
    assert "txn 7" in text
    assert "fill" in text
    assert "boom" in text


def test_auditor_rejects_degenerate_ring():
    with pytest.raises(ValueError):
        TraceAuditor(num_cmps=1)


# ----------------------------------------------------------------------
# Metrics timeline

def test_timeline_samples_phases_and_windows():
    from repro.obs.runner import run_traced

    traced = run_traced(
        "lazy",
        "specjbb",
        accesses_per_core=200,
        warmup_fraction=0.35,
        sample_window=5000,
    )
    samples = traced.samples
    assert samples, "sampler never fired"
    assert {sample.phase for sample in samples} == {"warmup", "measure"}
    times = [sample.time for sample in samples]
    assert times == sorted(times)
    assert all(
        later - earlier == 5000
        for earlier, later in zip(times, times[1:])
    )
    assert all(sample.inflight >= 0 for sample in samples)
    assert all(sample.requests >= 0 for sample in samples)
    # Deltas are consistent with their own ratio helper.
    busy = next((s for s in samples if s.requests), None)
    if busy is not None:
        assert busy.snoops_per_request == busy.snoops / busy.requests


def test_timeline_render_is_tabular():
    from repro.obs.runner import run_traced
    from repro.sim.system import RingMultiprocessor  # noqa: F401

    traced = run_traced(
        "lazy", "specjbb", accesses_per_core=100, sample_window=10000
    )
    # Rebuild a timeline-like rendering from the samples.
    from repro.obs.timeline import MetricsTimeline

    timeline = MetricsTimeline.__new__(MetricsTimeline)
    timeline.samples = traced.samples
    text = timeline.render()
    assert "snoops/req" in text
    assert len(text.splitlines()) == len(traced.samples) + 1


def test_timeline_rejects_bad_window():
    from repro.obs.timeline import MetricsTimeline

    with pytest.raises(ValueError):
        MetricsTimeline(object(), 0)
