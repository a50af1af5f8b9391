"""JSONL serialization of run traces.

File layout (one JSON object per line)::

    {"meta": {"algorithm": "exact", "workload": "specweb",
              "num_cmps": 8, ...}}
    {"t": 0, "ev": "issue", "txn": 1, "node": 3, "addr": 4096,
     "data": {"kind": "read", "core": 12, "squashed": false}}
    ...

The meta header is optional when writing raw event lists but the
auditor needs ``num_cmps`` from it, so :func:`write_trace` always
emits one.  Unknown keys in the header are preserved round-trip.

Byte-identity contract: every event line is exactly
``json.dumps(event_to_json(event), sort_keys=True)``.
:func:`encode_event` produces those bytes without building the dict
or a new encoder per event.  :class:`TraceReader` yields a file's
events lazily and :func:`read_trace` lists them; both reject every
line that is not one event object (or the meta header) with a
``ValueError`` naming the line.

The reader parses a block of lines (``READ_BLOCK`` characters) with
one ``json.loads`` when the block provably holds one object per line
(:func:`_block_items` says why the rule suffices) and builds the
common event - int fields, a known type, an object payload - from
each item directly.  Every other line, and every line of a block that
fails the rule, goes through the per-line code
(``TraceReader._line_event``), which is the reference for what is
accepted and for every error text.
"""

from __future__ import annotations

import json
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.obs.trace import EventType, TraceEvent

#: Event lines the writer joins into one ``write`` call.
WRITE_CHUNK = 1024

#: Characters a reader's ``readlines`` hint asks for per block.
READ_BLOCK = 1 << 16

#: An event line with its ``data`` object and ``ev`` string spliced in:
#: the top-level keys in ``sort_keys`` order, json's default separators.
_EVENT_LINE = '{"addr": %d, "data": %s, "ev": %s, "node": %d, "t": %d, "txn": %d}'

if c_make_encoder is not None:
    # The C encoder json.dumps(..., sort_keys=True) builds on every
    # call, built once.  Without circular-reference markers: a payload
    # it cannot encode (a cycle included) raises, and encode_event then
    # lets json.dumps raise its own error.
    _data_encoder = c_make_encoder(
        None,
        JSONEncoder().default,
        encode_basestring_ascii,
        None,
        ": ",
        ", ",
        True,
        False,
        True,
    )
else:  # an interpreter without the _json accelerator

    def _data_encoder(data: Dict[Any, Any], _level: int) -> Tuple[str]:
        return (json.dumps(data, sort_keys=True),)


#: ``ev`` string -> member: a dict lookup instead of ``EventType(...)``.
_EVENT_TYPES = {member.value: member for member in EventType}
_new_tuple = tuple.__new__
_raw_decode = json.JSONDecoder().raw_decode
_first_char = itemgetter(0)


def event_to_json(event: TraceEvent) -> Dict[str, Any]:
    """One event as a JSON-serializable dict (compact key names)."""
    return {
        "t": event.time,
        "ev": event.type.value,
        "txn": event.txn,
        "node": event.node,
        "addr": event.address,
        "data": dict(event.data),
    }


def encode_event(event: TraceEvent) -> str:
    """One event line, byte-identical to
    ``json.dumps(event_to_json(event), sort_keys=True)``.

    The common case - a :class:`TraceEvent` with int
    ``t``/``txn``/``node``/``addr``, an :class:`EventType` and a
    ``dict`` payload - is formatted directly; anything else, or a
    payload json cannot encode, goes through ``json.dumps`` itself.
    """
    if type(event) is not TraceEvent:
        return json.dumps(event_to_json(event), sort_keys=True)
    time, kind, txn, node, address, data = event
    if (
        type(time) is int
        and type(txn) is int
        and type(node) is int
        and type(address) is int
        and type(kind) is EventType
        and type(data) is dict
    ):
        try:
            encoded = "".join(_data_encoder(data, 0))
        except (TypeError, ValueError, RecursionError):
            pass
        else:
            return _EVENT_LINE % (
                address,
                encoded,
                encode_basestring_ascii(kind._value_),
                node,
                time,
                txn,
            )
    return json.dumps(event_to_json(event), sort_keys=True)


def event_from_json(payload: Mapping[str, Any]) -> TraceEvent:
    """Inverse of :func:`event_to_json`.

    The event keeps ``payload``'s ``data`` dict itself, not a copy.
    Raises ``KeyError``, ``TypeError`` or ``ValueError`` for a payload
    that is not one event: a missing or non-integer field, an unknown
    ``ev``, a ``data`` that is not an object.
    """
    time = int(payload["t"])
    name = payload["ev"]
    kind = _EVENT_TYPES.get(name) if type(name) is str else None
    if kind is None:
        kind = EventType(name)  # raises the enum's own error
    txn = int(payload["txn"])
    node = int(payload["node"])
    address = int(payload["addr"])
    data = payload.get("data")
    if not isinstance(data, dict):
        if "data" in payload:
            raise ValueError("data is not an object: %r" % (data,))
        data = {}
    # tuple.__new__ skips the NamedTuple's Python-level __new__.
    return _new_tuple(TraceEvent, (time, kind, txn, node, address, data))


def encode_meta(meta: Mapping[str, Any]) -> str:
    """The meta header line (without its newline)."""
    return json.dumps({"meta": dict(meta)}, sort_keys=True)


def write_trace(
    path: str,
    events: Iterable[TraceEvent],
    meta: Mapping[str, Any],
) -> int:
    """Write a meta header plus every event; returns the event count."""
    count = 0
    chunk: List[str] = []
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(encode_meta(meta) + "\n")
        for event in events:
            chunk.append(encode_event(event))
            if len(chunk) == WRITE_CHUNK:
                handle.write("\n".join(chunk) + "\n")
                count += len(chunk)
                chunk.clear()
        if chunk:
            handle.write("\n".join(chunk) + "\n")
            count += len(chunk)
    return count


class TraceReader:
    """A trace file read lazily, one event at a time.

    ``meta`` holds the header - the meta lines before the first event -
    as soon as the reader is built.  Each iteration re-reads the file
    from the start and yields its events in order, so memory does not
    grow with the file and a second pass (the auditor's) is one more
    loop.  A meta line met while iterating merges into ``meta``.

    Raises ``ValueError`` naming the line for every line that is not
    blank, the meta header or one event object - malformed JSON, a
    non-object, an unknown event type, a missing or non-integer field,
    a non-object ``data`` - when the iteration reaches it, so a
    truncated or hand-edited file fails loudly rather than auditing a
    partial trace silently.  A missing file raises ``OSError`` here.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.meta: Dict[str, Any] = {}
        for _event in self:
            break  # the header is read

    def __iter__(self) -> Iterator[TraceEvent]:
        line_event = self._line_event
        types = _EVENT_TYPES
        with open(self.path, "r", encoding="utf-8") as handle:
            first = 1  # the block's first line number
            while True:
                lines = handle.readlines(READ_BLOCK)
                if not lines:
                    return
                items = _block_items(lines)
                if items is None:
                    for lineno, line in enumerate(lines, first):
                        event = line_event(lineno, line)
                        if event is not None:
                            yield event
                    first += len(lines)
                    continue
                for index, item in enumerate(items):
                    # The common line, an event with int fields and an
                    # object payload, is built here; any other line goes
                    # through the per-line code.
                    try:
                        time, name, txn = item["t"], item["ev"], item["txn"]
                        node, address = item["node"], item["addr"]
                        data = item["data"]
                    except KeyError:
                        time = None  # fails the first test below
                    if (
                        type(time) is int
                        and type(txn) is int
                        and type(node) is int
                        and type(address) is int
                        and type(data) is dict
                        and type(name) is str
                    ):
                        kind = types.get(name)
                        if kind is not None:
                            yield _new_tuple(
                                TraceEvent,
                                (time, kind, txn, node, address, data),
                            )
                            continue
                    event = line_event(first + index, lines[index])
                    if event is not None:
                        yield event
                first += len(lines)

    def _line_event(self, lineno: int, line: str) -> Optional[TraceEvent]:
        """Line ``lineno``'s event, or ``None`` for a blank or meta
        line (merged into ``meta``); ``ValueError`` for any other."""
        path = self.path
        line = line.strip()
        if not line:
            return None
        try:
            payload, end = _raw_decode(line)
        except json.JSONDecodeError:
            end = -1
        if end != len(line):
            # Not exactly one JSON value: json.loads raises its own
            # error for the line ("Extra data", a BOM, ...).
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
                self.meta.update(payload["meta"])
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    "%s:%d: malformed meta header: %s" % (path, lineno, exc)
                ) from exc
            return None
        try:
            return event_from_json(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                "%s:%d: malformed event: %s" % (path, lineno, exc)
            ) from exc


def _block_items(lines: List[str]) -> Optional[List[Any]]:
    """The objects of a block of lines, parsed with one ``json.loads``,
    or ``None`` unless each line provably holds exactly one object.

    Every line must start with ``{`` and the block must hold no ``[``.
    Strict JSON has no raw newline inside a string, so an object still
    open at a line's end would meet the next line's ``,{`` and fail
    the parse; without arrays, no value spans two lines.  Each line
    then holds at least one of the array's items, and as many items
    as lines means exactly one each.
    """
    if set(map(_first_char, lines)) != {"{"}:
        return None
    text = ",".join(lines)
    if "[" in text:
        return None
    try:
        items = json.loads("[" + text + "]")
    except (ValueError, RecursionError):
        return None  # the per-line code finds the line and its error
    return items if len(items) == len(lines) else None


def read_trace(path: str) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Read a whole trace file as ``(meta, events)``: a
    :class:`TraceReader` listed, with the same errors."""
    reader = TraceReader(path)
    events = list(reader)
    return reader.meta, events
