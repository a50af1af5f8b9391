"""Unit tests for the observability layer (repro.obs).

Sinks, JSONL round-trips, filtering/rendering, the metrics timeline,
and - most importantly - the per-transaction lifecycle auditors,
exercised against hand-built traces that violate each rule in turn.
"""

from __future__ import annotations

import pytest

from repro.config import TraceConfig, default_machine
from repro.core.algorithms import build_algorithm
from repro.obs.audit import TraceAuditor, Violation
from repro.obs.jsonl import (
    TraceReader,
    event_from_json,
    event_to_json,
    read_trace,
    write_trace,
)
from repro.obs.render import filter_events, render_timeline
from repro.obs.trace import (
    NO_TXN,
    EventType,
    InMemorySink,
    JsonlStreamSink,
    TraceEvent,
)
from repro.sim.system import RingMultiprocessor
from repro.workloads.synthetic import SharingProfile

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


def _traced_machine(sink=None, sink_spec="memory"):
    config = default_machine(algorithm="lazy", cores_per_cmp=1).replace(
        tracing=TraceConfig(enabled=True, sink=sink_spec)
    )
    profile = SharingProfile(
        name="sinks", num_cores=8, cores_per_cmp=1, accesses_per_core=20
    )
    return RingMultiprocessor(
        config, build_algorithm("lazy"), profile, trace_sink=sink
    )


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


def test_sinks_resolve_through_registry():
    from repro.registry import REGISTRY

    assert "memory" in REGISTRY.names("sink")
    assert "jsonl" in REGISTRY.names("sink")
    assert isinstance(REGISTRY.create("sink", "memory"), InMemorySink)


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
