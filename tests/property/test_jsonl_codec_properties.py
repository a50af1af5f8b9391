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

The reader's block parse is checked the same way: generated files mix
canonical event lines with blank lines, meta lines, valid but
non-canonical event lines and malformed lines placed across block
boundaries, and :class:`~repro.obs.jsonl.TraceReader` must yield what
a per-line reference reader yields and raise its error text.

Tier-1 runs a fast profile; set ``FLEXSNOOP_PROPERTY_EXAMPLES`` (e.g.
to 200) for a long run.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import jsonl
from repro.obs.jsonl import (
    TraceReader,
    encode_event,
    event_from_json,
    event_to_json,
    read_trace,
    write_trace,
)
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


# ----------------------------------------------------------------------
# The reader's block parse against a per-line reference


class _LineByLineReader:
    """The reader as it was before block parsing, kept as the
    reference: every line parsed on its own."""

    def __init__(self, path):
        self.path = path
        self.meta = {}
        for _event in self:
            break

    def __iter__(self):
        path = self.path
        meta = self.meta
        raw_decode = json.JSONDecoder().raw_decode
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload, end = raw_decode(line)
                except json.JSONDecodeError:
                    end = -1
                if end != len(line):
                    try:
                        json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ValueError(
                            "%s:%d: malformed JSON: %s" % (path, lineno, exc)
                        ) from exc
                if type(payload) is not dict:
                    raise ValueError(
                        "%s:%d: malformed event: not a JSON object: %.40s"
                        % (path, lineno, line)
                    )
                if "meta" in payload and "ev" not in payload:
                    try:
                        meta.update(payload["meta"])
                    except (TypeError, ValueError) as exc:
                        raise ValueError(
                            "%s:%d: malformed meta header: %s"
                            % (path, lineno, exc)
                        ) from exc
                    continue
                try:
                    event = event_from_json(payload)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(
                        "%s:%d: malformed event: %s" % (path, lineno, exc)
                    ) from exc
                yield event


def _read(reader_class, path):
    """The header a reader sees at construction, then the events and
    the merged meta of a full pass - or the error text, tagged with
    the step that raised it."""
    try:
        reader = reader_class(path)
    except ValueError as exc:
        return "constructor", str(exc)
    header = dict(reader.meta)
    try:
        events = list(reader)
    except ValueError as exc:
        return "iteration", str(exc)
    return header, reader.meta, events


#: Payloads of the common shape: str keys, scalar values, no arrays.
flat_payloads = st.dictionaries(
    texts,
    st.one_of(st.integers(), st.booleans(), st.none(), texts,
              st.floats(allow_nan=False)),
    max_size=4,
)
flat_events = _events(payload=flat_payloads)


def _fields(event):
    return event_to_json(event)


def _noncanonical(event):
    """Valid event lines that are not the canonical bytes."""
    fields = _fields(event)
    no_data = {k: v for k, v in fields.items() if k != "data"}
    return st.sampled_from([
        json.dumps(fields),  # the keys in field order, not sorted
        json.dumps(fields, sort_keys=True, separators=(" ,  ", " :  ")),
        "  " + encode_event(event) + "\t",
        json.dumps({**fields, "t": float(event.time)}),
        json.dumps({**fields, "txn": True}),
        json.dumps({**fields, "node": str(event.node)}),
        json.dumps(no_data, sort_keys=True),
        json.dumps({**fields, "extra": 1}, sort_keys=True),
    ])


#: A canonical event line.
EVENT_LINE = encode_event(TraceEvent(0, EventType.HOP, 1, 0, 64, {"to": 1}))

#: Malformed lines, some in pairs that a naive join of the two lines
#: would parse as one value, and some that each of the block rule's
#: checks or the fast path's type tests alone must turn away.
MALFORMED = [
    ['{"a": [1', "2]}"],
    [
        '{"t": 0, "ev": "hop", "txn": 1, "node": 0, "addr": 0, '
        '"data": {"x": [1',
        '{"y": 2}]}}, ' + EVENT_LINE,
    ],
    [EVENT_LINE + ", " + EVENT_LINE],
    ['{"a": 1', '"b": 2}'],
    ['{"k": "}', '{", "z": 1}'],
    ['{"a": 1', ',{"b": 2}'],
    ['{"t": 1, "ev": "hop", "txn": 1}{"node": 0}'],
    ['{}, {}'],
    ["\ufeff" + EVENT_LINE],
    ["5"],
    ["[1, 2]"],
    ['{"meta": 5}'],
    ['{"t": 0, "ev": "no-such-event", "txn": 1, "node": 0, "addr": 0}'],
    ['{"t": 0, "ev": "issue", "txn": 1, "node": 0, "addr": 0, "data": 7}'],
    ['{"t": "x", "ev": "issue", "txn": 1, "node": 0, "addr": 0, "data": {}}'],
    ['{"ev": {}, "t": 0, "txn": 1, "node": 0, "addr": 0, "data": {}}'],
    ['{"t": 0, "ev": "issue", "txn": 1, "node": 0, "addr": 0, "data": {}'],
    ['{"t": 0, "ev": "issue", "txn": 1, "node": 0, "addr": 0}'],
    ['{"t": 0, "ev": "issue", "txn": 1.5, "node": 0, "addr": 0, "data": {}}'],
    ['{"t": 0, "ev": "issue", "txn": 1, "node": null, "addr": 0, "data": {}}'],
    ['{"t": 0, "ev": "issue", "txn": 1, "node": 0, "addr": "0x", "data": {}}'],
]

#: Groups of consecutive lines a generated file is made of.
line_groups = st.one_of(
    flat_events.map(lambda event: [encode_event(event)]),
    events.map(lambda event: [encode_event(event)]),
    st.sampled_from(["", "   ", "\t"]).map(lambda line: [line]),
    st.dictionaries(texts, st.integers(), max_size=2).map(
        lambda meta: [json.dumps({"meta": meta})]
    ),
    flat_events.flatmap(_noncanonical).map(lambda line: [line]),
    st.sampled_from(MALFORMED),
)


@given(
    groups=st.lists(
        st.one_of(line_groups, flat_events.map(
            lambda event: [encode_event(event)] * 3)),
        max_size=24,
    ),
    header=st.booleans(),
    block=st.sampled_from([1, 40, 200, 1 << 16]),
    trailing_newline=st.booleans(),
)
@settings(max_examples=EXAMPLES * 5, deadline=None)
def test_block_reader_reads_what_the_line_reader_reads(
    groups, header, block, trailing_newline
):
    lines = [json.dumps({"meta": META}, sort_keys=True)] if header else []
    for group in groups:
        lines.extend(group)
    text = "\n".join(lines) + ("\n" if trailing_newline and lines else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        # Small blocks put the groups across block boundaries.
        with mock.patch.object(jsonl, "READ_BLOCK", block):
            got = _read(TraceReader, path)
        assert got == _read(_LineByLineReader, path)


def test_block_reader_reports_every_malformed_line_as_the_line_reader_does(
    tmp_path,
):
    """Each malformed group after 0-2 canonical lines, in one block,
    in one-line blocks and across a boundary: the same events, then
    the same error."""
    path = str(tmp_path / "trace.jsonl")
    header = json.dumps({"meta": META}, sort_keys=True)
    for group in MALFORMED:
        for before in range(3):
            lines = [header] + [EVENT_LINE] * before + group + [EVENT_LINE]
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            expected = _read(_LineByLineReader, path)
            for block in (1, 250, 1 << 16):
                with mock.patch.object(jsonl, "READ_BLOCK", block):
                    got = _read(TraceReader, path)
                assert got == expected, (group, before, block)


def test_block_reader_parses_canonical_blocks_in_one_call(tmp_path):
    """A canonical file takes the block path: one json.loads per block
    and no per-line decode."""
    path = str(tmp_path / "trace.jsonl")
    trace = [
        TraceEvent(t, EventType.HOP, 1, t % 8, 64, {"to": 1, "mode": "split"})
        for t in range(5_000)
    ]
    write_trace(path, trace, {"algorithm": "lazy"})
    with mock.patch.object(
        jsonl, "_raw_decode", wraps=jsonl._raw_decode
    ) as raw_decode:
        reader = TraceReader(path)
        events = list(reader)
    assert events == trace and reader.meta == {"algorithm": "lazy"}
    assert raw_decode.call_count == 2  # the header line, once per pass
