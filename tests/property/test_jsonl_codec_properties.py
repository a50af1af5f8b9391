"""Generated events: the JSONL event codec keeps its byte-identity
contract and round-trips.

Every event line must be exactly
``json.dumps(event_to_json(event), sort_keys=True)``; ``json.dumps``
stays the reference here, so a fast path that drifts from it by one
byte fails.  Hypothesis draws events of every type with payload keys
full of non-ASCII characters, quotes, backslashes and control
characters, and values that are ints (negative, and beyond 64 bits),
bools, None, strings, floats (infinities included) and nested lists
and dicts.  It also draws the shapes the fast path must hand back to
``json.dumps``: non-int top-level fields and non-str payload keys.

Tier-1 runs a fast profile; set ``FLEXSNOOP_PROPERTY_EXAMPLES`` (e.g.
to 200) for a long run.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.jsonl import encode_event, event_to_json, read_trace, write_trace
from repro.obs.trace import EventType, JsonlStreamSink, TraceEvent

#: Examples per property: a fast tier-1 default, raised for long runs.
EXAMPLES = int(os.environ.get("FLEXSNOOP_PROPERTY_EXAMPLES", "40"))

META = {"algorithm": "lazy", "num_cmps": 8, "note": "café \"q\" \\"}

#: Characters the string escaper must get right.
AWKWARD = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", " ",
     "\ud800", "\U0001f600", "/", "{", "%"]
)
texts = st.lists(
    st.one_of(AWKWARD, st.characters(blacklist_categories=())), max_size=6
).map("".join)

scalars = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**64)),
    st.booleans(),
    st.none(),
    texts,
    st.floats(allow_nan=False),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(texts, inner, max_size=3),
    ),
    max_leaves=6,
)
payloads = st.dictionaries(texts, values, max_size=6)
fields = st.integers(min_value=-1, max_value=2**70)


def _events(payload=payloads, field=fields):
    return st.builds(
        TraceEvent, field, st.sampled_from(EventType), field, field, field,
        payload,
    )


#: Events that round-trip: str payload keys, int fields, no NaN.
events = _events()
#: Also the shapes the fast path hands back to json.dumps.
any_events = st.one_of(
    events,
    _events(
        payload=st.one_of(
            payloads,
            st.dictionaries(st.integers(), values, max_size=3),
            payloads.map(lambda data: {**data, "nan": math.nan}),
        ),
        field=st.one_of(
            fields, st.booleans(), st.floats(), texts, st.none()
        ),
    ),
)


#: Payloads json.dumps(..., sort_keys=True) refuses: mixed key types
#: cannot be sorted, and a set is not JSON.
unencodable = _events(
    payload=st.one_of(
        payloads.map(lambda data: {**data, 1: 0, "k": 0}),
        payloads.map(lambda data: {**data, "set": {1, 2}}),
    )
)


def _reference(event):
    return json.dumps(event_to_json(event), sort_keys=True)


def _outcome(encode, event):
    """What ``encode(event)`` returns, or the error it raises."""
    try:
        return encode(event)
    except Exception as exc:
        return type(exc), str(exc)


@given(st.one_of(any_events, unencodable))
@settings(max_examples=EXAMPLES, deadline=None)
def test_encode_event_is_byte_identical_to_json_dumps(event):
    assert _outcome(encode_event, event) == _outcome(_reference, event)


@given(st.lists(events, max_size=8))
@settings(max_examples=EXAMPLES, deadline=None)
def test_write_read_round_trip(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        assert write_trace(path, trace, META) == len(trace)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[1:] == [_reference(event) for event in trace]
        meta, loaded = read_trace(path)
    assert meta == META
    assert loaded == trace


@given(st.lists(any_events, max_size=8))
@settings(max_examples=EXAMPLES, deadline=None)
def test_stream_sink_writes_the_same_bytes(trace):
    # The second sink is given the run's final meta only after its
    # events, as run_traced completes exec_time and num_events after
    # the run: the header still lands first.
    final = {**META, "exec_time": 12345, "num_events": len(trace)}
    with tempfile.TemporaryDirectory() as tmp:
        for name, meta in (("initial", META), ("final", final)):
            written = os.path.join(tmp, name + "-written.jsonl")
            streamed = os.path.join(tmp, name + "-streamed.jsonl")
            write_trace(written, trace, meta)
            with JsonlStreamSink(streamed, meta=META) as sink:
                for event in trace:
                    sink.emit(event)
                sink.meta = meta
            with open(written, "rb") as a, open(streamed, "rb") as b:
                assert a.read() == b.read()
        assert len(os.listdir(tmp)) == 4  # the spools left nothing


def test_malformed_line_deep_in_a_file_is_reported_by_number(tmp_path):
    path = tmp_path / "long.jsonl"
    good = TraceEvent(0, EventType.HOP, 1, 0, 64, {"to": 1, "mode": "split"})
    write_trace(str(path), [good] * 5_000, META)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n\n   \n")
        handle.write('{"t": 1, "ev": "hop", "txn": 1}{"node": 0}\n')
    # Line 1 is the header, 2-5001 the events, 5002-5004 blank.
    with pytest.raises(ValueError, match=r"long\.jsonl:5005: malformed JSON: Extra data"):
        read_trace(str(path))
