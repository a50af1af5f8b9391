"""Generated perturbations of a real trace: the online auditor's
verdict equals a batch reference.

The reference below is the auditor as it was before it went online:
one pass groups every event by transaction, the unchanged
per-transaction rules (``TraceAuditor._audit_txn``) run in transaction
order, then one sweep over the whole trace checks same-address
serialization.  The online auditor buffers only open transactions and
re-audits, from a second pass, any transaction that gets an event
after it closed; its verdict must not differ in any violation, message
or order, nor in the error a crash raises.

Hypothesis draws the golden suite's six perturbation kinds (through
its seeded ``perturb``) and three kinds that land an event after its
transaction closed: an event moved past its transaction's retry, a
copy of a retirement appended, a mid-transaction event retyped to a
retirement.  Both ``TraceAuditor.audit`` on the event list and the
streamed file audit (``TraceReader`` through ``feed``/``finish``, as
``flexsnoop trace audit`` runs it) must equal the reference.

Tier-1 runs a short profile; set ``FLEXSNOOP_PROPERTY_EXAMPLES`` (e.g.
to 300) for a long run.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.audit import Violation, auditor_for
from repro.obs.jsonl import TraceReader, write_trace
from repro.obs.runner import run_traced
from repro.obs.trace import EventType
from tests.golden.test_audit_mutations import _targets, _vocabulary, perturb

#: Examples per property: a fast tier-1 default, raised for long runs.
EXAMPLES = int(os.environ.get("FLEXSNOOP_PROPERTY_EXAMPLES", "15"))

LATE_KINDS = ("past_retry", "append_retire", "retype_retire")


def reference_audit(auditor, events):
    """The batch audit: group, check each transaction, then sweep."""
    by_txn = {}
    lifecycle = []
    for event in events:
        if event.txn < 0:
            continue
        by_txn.setdefault(event.txn, []).append(event)
        if event.type in (EventType.ISSUE, EventType.RETIRE):
            lifecycle.append(event)
    violations = []
    for txn in sorted(by_txn):
        violations.extend(auditor._audit_txn(txn, by_txn[txn]))
    violations.extend(_serialization(lifecycle))
    return violations


def _serialization(events):
    """The whole-trace serialization sweep over issues and retirements."""
    out = []
    active = {}
    for event in events:
        if event.type is EventType.ISSUE:
            address = event.address
            is_write = event.data.get("kind") == "write"
            squashed = bool(event.data.get("squashed", False))
            inflight = active.setdefault(address, {})
            conflict = any(
                not other_squashed and (is_write or other_write)
                for other_write, other_squashed in inflight.values()
            )
            if conflict and not squashed:
                out.append(Violation(
                    event.txn, "serialization", event.time,
                    "non-squashed %s issued on line %#x with a "
                    "conflicting write-involving transaction in flight"
                    % ("write" if is_write else "read", address),
                ))
            elif squashed and not conflict:
                out.append(Violation(
                    event.txn, "serialization", event.time,
                    "transaction issued squashed on line %#x with no "
                    "conflicting transaction in flight" % address,
                ))
            inflight[event.txn] = (is_write, squashed)
        else:
            inflight = active.get(event.address)
            if inflight is not None:
                inflight.pop(event.txn, None)
                if not inflight:
                    del active[event.address]
    return out


def outcome(audit):
    """``audit()``'s violations, or the type of the error it raised."""
    try:
        return [(v.txn, v.rule, v.time, v.message) for v in audit()]
    except Exception as exc:  # a crash is a verdict too
        return type(exc).__name__


def streamed_audit(path):
    reader = TraceReader(path)
    auditor = auditor_for(reader.meta)
    for event in reader:
        auditor.feed(event)
    return auditor.finish(reader)


@pytest.fixture(scope="module")
def cell():
    """Criticality on splash2: 11,963 events with squashes, retries
    and MSHR waiters."""
    traced = run_traced("criticality", "splash2", accesses_per_core=40)
    events = traced.events
    assert any(e.type is EventType.RETRY for e in events)
    assert any(e.type is EventType.MSHR for e in events)
    return events, traced.meta, _targets(events), _vocabulary(events)


def _late_perturbation(events, kind, draw):
    """Land an event after its transaction closed."""
    out = list(events)
    if kind == "append_retire":
        retires = [i for i, e in enumerate(events) if e.type is EventType.RETIRE]
        out.append(events[draw(retires)])
        return out
    if kind == "past_retry":
        retries = [i for i, e in enumerate(events) if e.type is EventType.RETRY]
        retry = draw(retries)
        txn = events[retry].txn
        earlier = [i for i in range(retry) if events[i].txn == txn]
        moved = out.pop(draw(earlier))
        out.insert(retry, moved)  # just after the retry, now one left
        return out
    # retype_retire: an event strictly inside its transaction.
    first, last = {}, {}
    for i, event in enumerate(events):
        if event.txn >= 0:
            first.setdefault(event.txn, i)
            last[event.txn] = i
    inner = [
        i for i, e in enumerate(events)
        if e.txn >= 0 and first[e.txn] < i < last[e.txn]
    ]
    index = draw(inner)
    out[index] = out[index]._replace(type=EventType.RETIRE)
    return out


@st.composite
def perturbed(draw, cell):
    events, meta, targets, vocabulary = cell
    kind = draw(st.sampled_from(("golden",) + LATE_KINDS))
    if kind == "golden":
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        _label, out = perturb(events, seed, targets, vocabulary, meta["num_cmps"])
        return out
    return _late_perturbation(
        events, kind, lambda pool: pool[draw(st.integers(0, len(pool) - 1))]
    )


def test_online_audit_equals_the_batch_reference(cell):
    events, meta, _targets_, _vocabulary_ = cell

    @given(st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def check(data):
        trace = data.draw(perturbed(cell))
        auditor = auditor_for(meta)
        expected = outcome(lambda: reference_audit(auditor, trace))
        assert outcome(lambda: auditor.audit(trace)) == expected
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.jsonl")
            write_trace(path, trace, meta)
            assert outcome(lambda: streamed_audit(path)) == expected

    check()


@pytest.mark.parametrize("kind", LATE_KINDS)
def test_late_perturbations_reach_the_second_pass(cell, kind):
    events, meta, _targets_, _vocabulary_ = cell
    trace = _late_perturbation(events, kind, lambda pool: pool[0])
    auditor = auditor_for(meta)
    for event in trace:
        auditor.feed(event)
    # Only a transaction that got an event after it closed needs the
    # trace again.
    with pytest.raises(ValueError, match="after they closed"):
        auditor.finish()
    assert auditor.audit(trace) == reference_audit(auditor, trace) != []
