"""Trace file I/O: the ``flexsnoop-trace`` JSONL format.

Serializes :class:`WorkloadTrace` objects so traces can be generated
once and replayed across many simulator configurations - or produced
by external tools (a Pin tool, gem5, ChampSim via ``flexsnoop trace
convert``) and fed to this package.

Format v2 (one JSON document per line)::

    {"format": "flexsnoop-trace", "version": 2, "name": ...,
     "cores_per_cmp": ..., "num_cores": ..., "total_accesses": ...}
    {"core": 0, "accesses": [[address, w, think], ...]}   # <= chunk
    {"core": 0, "accesses": [...]}                        # ... more
    {"core": 1, "accesses": [...]}
    {"core": 0, "prewarm": [...]}                         # optional

``w`` is 0/1; addresses are line addresses (byte address divided by
the line size).  A core's accesses are split across *chunk* records
(:data:`DEFAULT_CHUNK_ACCESSES` each) so readers never need one giant
line per core: :func:`scan_trace` indexes the chunk offsets in one
bounded-memory pass and :func:`iter_core_accesses` replays a core by
seeking chunk to chunk.  The header's ``total_accesses`` is
required, so truncation is always detected.  Any other version
(including v1, one combined record per core) is rejected.

All malformed-input errors are :class:`TraceFormatError` and carry
``path:line`` positions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple, Union

from repro.workloads.trace import Access, WorkloadTrace

FORMAT_NAME = "flexsnoop-trace"
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (2,)

#: Accesses per chunk record written by :func:`save_trace`.
DEFAULT_CHUNK_ACCESSES = 4096


class TraceFormatError(ValueError):
    """Raised when a trace file does not match the expected format."""


def save_trace(
    workload: WorkloadTrace,
    path: Union[str, Path],
    chunk_size: int = DEFAULT_CHUNK_ACCESSES,
) -> None:
    """Write a workload trace to ``path`` (JSON-lines, format v2)."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    workload.validate()
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "name": workload.name,
            "cores_per_cmp": workload.cores_per_cmp,
            "num_cores": workload.num_cores,
            "total_accesses": workload.total_accesses,
        }
        handle.write(json.dumps(header) + "\n")
        for core, trace in enumerate(workload.traces):
            for start in range(0, len(trace), chunk_size):
                record = {
                    "core": core,
                    "accesses": [
                        [a.address, int(a.is_write), a.think_time]
                        for a in trace[start:start + chunk_size]
                    ],
                }
                handle.write(json.dumps(record) + "\n")
        if workload.prewarm:
            for core, lines in enumerate(workload.prewarm):
                handle.write(
                    json.dumps({"core": core, "prewarm": list(lines)})
                    + "\n"
                )


# ----------------------------------------------------------------------
# Streaming reader infrastructure


def _error(path: object, lineno: int, message: str) -> TraceFormatError:
    return TraceFormatError("%s:%d: %s" % (path, lineno, message))


def _parse_header(path: object, raw: bytes) -> Dict[str, Any]:
    try:
        header = json.loads(raw)
    except ValueError as exc:
        raise _error(path, 1, "bad trace header: %s" % exc) from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise _error(path, 1, "not a %s file" % FORMAT_NAME)
    version = header.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise _error(
            path,
            1,
            "unsupported trace version %r (supported: %s)"
            % (version, ", ".join(str(v) for v in SUPPORTED_VERSIONS)),
        )
    for key in ("name", "cores_per_cmp", "num_cores", "total_accesses"):
        if key not in header:
            raise _error(path, 1, "header is missing %r" % key)
    num_cores = header["num_cores"]
    cores_per_cmp = header["cores_per_cmp"]
    if (
        not isinstance(num_cores, int)
        or not isinstance(cores_per_cmp, int)
        or num_cores <= 0
        or cores_per_cmp <= 0
        or num_cores % cores_per_cmp
    ):
        raise _error(
            path,
            1,
            "bad geometry: num_cores=%r cores_per_cmp=%r"
            % (num_cores, cores_per_cmp),
        )
    return header


def _parse_record(
    path: object, lineno: int, raw: bytes, num_cores: int
) -> Dict[str, Any]:
    try:
        record = json.loads(raw)
    except ValueError as exc:
        raise _error(
            path, lineno, "bad trace record: %s" % exc
        ) from exc
    if not isinstance(record, dict):
        raise _error(path, lineno, "trace record is not an object")
    core = record.get("core")
    if not isinstance(core, int) or not 0 <= core < num_cores:
        raise _error(
            path,
            lineno,
            "core %r out of range (trace has %d cores)"
            % (core, num_cores),
        )
    return record


def _record_accesses(
    path: object, lineno: int, record: Dict[str, Any]
) -> Iterator[Access]:
    items = record.get("accesses", ())
    if not isinstance(items, list):
        raise _error(path, lineno, "accesses is not a list")
    for item in items:
        try:
            address, is_write, think = item
            yield Access(
                address=address,
                is_write=bool(is_write),
                think_time=think,
            )
        except (TypeError, ValueError) as exc:
            raise _error(
                path, lineno, "bad access %r: %s" % (item, exc)
            ) from exc


@dataclass
class TraceScan:
    """Everything one streaming pass over a trace file learns.

    ``chunks[core]`` lists the ``(byte_offset, lineno)`` of each of
    the core's access records, in file order, so a replay can seek
    straight to them; nothing access-sized is retained.
    """

    path: str
    name: str
    cores_per_cmp: int
    num_cores: int
    total_accesses: int
    sha256: str
    chunks: List[List[Tuple[int, int]]] = field(default_factory=list)
    prewarm: List[List[int]] = field(default_factory=list)


def scan_trace(path: Union[str, Path]) -> TraceScan:
    """Index a trace file in one bounded-memory pass.

    Validates the header and every record's shape, counts accesses
    per core (checking the header total), collects the prewarm
    lists and hashes the raw bytes.  Per-access values are validated
    lazily during replay; the scan only touches record structure, so
    it stays cheap relative to simulation.
    """
    path_str = str(path)
    digest = hashlib.sha256()
    with open(path_str, "rb") as handle:
        offset = 0
        raw = handle.readline()
        digest.update(raw)
        if not raw:
            raise TraceFormatError("empty trace file: %s" % path_str)
        header = _parse_header(path_str, raw)
        num_cores = header["num_cores"]
        chunks: List[List[Tuple[int, int]]] = [
            [] for _ in range(num_cores)
        ]
        prewarm: List[List[int]] = [[] for _ in range(num_cores)]
        saw_prewarm = False
        counted = 0
        lineno = 1
        offset += len(raw)
        while True:
            raw = handle.readline()
            if not raw:
                break
            digest.update(raw)
            lineno += 1
            if not raw.strip():
                raise _error(path_str, lineno, "blank line in trace")
            record = _parse_record(path_str, lineno, raw, num_cores)
            core = record["core"]
            if "accesses" in record:
                items = record["accesses"]
                if not isinstance(items, list):
                    raise _error(
                        path_str, lineno, "accesses is not a list"
                    )
                chunks[core].append((offset, lineno))
                counted += len(items)
            if "prewarm" in record:
                lines = record["prewarm"]
                if not isinstance(lines, list):
                    raise _error(
                        path_str, lineno, "prewarm is not a list"
                    )
                saw_prewarm = True
                prewarm[core].extend(lines)
            offset += len(raw)
    declared = header["total_accesses"]
    if declared != counted:
        raise _error(
            path_str,
            lineno,
            "trace is truncated: header declares %s accesses, found %d"
            % (declared, counted),
        )
    return TraceScan(
        path=path_str,
        name=header["name"],
        cores_per_cmp=header["cores_per_cmp"],
        num_cores=num_cores,
        total_accesses=counted,
        sha256=digest.hexdigest(),
        chunks=chunks,
        prewarm=prewarm if saw_prewarm else [],
    )


def iter_core_accesses(
    scan: TraceScan, core: int
) -> Iterator[Access]:
    """Stream one core's accesses from a scanned trace file.

    Opens its own handle (many cores stream concurrently during a
    simulation) and holds at most one decoded chunk at a time.
    """
    offsets = scan.chunks[core]
    if not offsets:
        return
    with open(scan.path, "rb") as handle:
        for offset, lineno in offsets:
            handle.seek(offset)
            raw = handle.readline()
            record = _parse_record(scan.path, lineno, raw, scan.num_cores)
            yield from _record_accesses(scan.path, lineno, record)


def read_header(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse and validate just the header line (cheap geometry peek)."""
    path_str = str(path)
    with open(path_str, "rb") as handle:
        raw = handle.readline()
    if not raw:
        raise TraceFormatError("empty trace file: %s" % path_str)
    return _parse_header(path_str, raw)


def load_trace(path: Union[str, Path]) -> WorkloadTrace:
    """Read a workload trace written by :func:`save_trace`.

    Streams record by record, validating incrementally - a malformed
    line raises a ``path:line``-positioned :class:`TraceFormatError`
    immediately, before later records are even parsed.
    """
    path_str = str(path)
    with open(path_str, "rb") as handle:
        raw = handle.readline()
        if not raw:
            raise TraceFormatError("empty trace file: %s" % path_str)
        header = _parse_header(path_str, raw)
        num_cores = header["num_cores"]
        traces: List[List[Access]] = [[] for _ in range(num_cores)]
        prewarm: List[List[int]] = [[] for _ in range(num_cores)]
        saw_prewarm = False
        counted = 0
        lineno = 1
        while True:
            raw = handle.readline()
            if not raw:
                break
            lineno += 1
            if not raw.strip():
                raise _error(path_str, lineno, "blank line in trace")
            record = _parse_record(path_str, lineno, raw, num_cores)
            core = record["core"]
            if "accesses" in record:
                before = len(traces[core])
                traces[core].extend(
                    _record_accesses(path_str, lineno, record)
                )
                counted += len(traces[core]) - before
            if "prewarm" in record:
                lines = record["prewarm"]
                if not isinstance(lines, list):
                    raise _error(
                        path_str, lineno, "prewarm is not a list"
                    )
                saw_prewarm = True
                prewarm[core].extend(lines)
    declared = header["total_accesses"]
    if declared != counted:
        raise _error(
            path_str,
            lineno,
            "trace is truncated: header declares %s accesses, found %d"
            % (declared, counted),
        )
    workload = WorkloadTrace(
        name=header["name"],
        cores_per_cmp=header["cores_per_cmp"],
        traces=traces,
        prewarm=prewarm if saw_prewarm else [],
    )
    workload.validate()
    return workload
