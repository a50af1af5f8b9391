"""Unit tests for trace file I/O."""

from __future__ import annotations

import json

import pytest

from repro.workloads.io import (
    TraceFormatError,
    load_trace,
    save_trace,
)
from repro.workloads.profiles import build_workload
from repro.workloads.synthetic import SharingProfile, generate_workload
from repro.workloads.trace import Access, WorkloadTrace


def small_workload():
    return generate_workload(
        SharingProfile(
            name="io-test",
            num_cores=4,
            cores_per_cmp=2,
            accesses_per_core=100,
            p_shared=0.5,
            shared_lines=32,
            private_lines=32,
            prewarm_fraction=0.5,
            seed=3,
        )
    )


def test_roundtrip(tmp_path):
    workload = small_workload()
    path = tmp_path / "trace.jsonl"
    save_trace(workload, path)
    loaded = load_trace(path)
    assert loaded.name == workload.name
    assert loaded.cores_per_cmp == workload.cores_per_cmp
    assert loaded.traces == workload.traces
    assert loaded.prewarm == workload.prewarm


def test_roundtrip_without_prewarm(tmp_path):
    workload = WorkloadTrace(
        name="bare",
        cores_per_cmp=1,
        traces=[[Access(1, False, 2)], [Access(2, True, 0)]],
    )
    path = tmp_path / "bare.jsonl"
    save_trace(workload, path)
    loaded = load_trace(path)
    assert loaded.prewarm == []
    assert loaded.traces == workload.traces


def test_loaded_trace_simulates_identically(tmp_path):
    from repro.config import CacheConfig, default_machine
    from repro.core.algorithms import build_algorithm
    from repro.sim.system import RingMultiprocessor

    workload = small_workload()
    path = tmp_path / "trace.jsonl"
    save_trace(workload, path)
    loaded = load_trace(path)

    def run(trace):
        machine = default_machine(
            algorithm="lazy",
            num_cmps=trace.num_cmps,
            cores_per_cmp=trace.cores_per_cmp,
            cache=CacheConfig(num_lines=128, associativity=4),
        )
        return RingMultiprocessor(
            machine, build_algorithm("lazy"), trace
        ).run()

    original = run(workload)
    replayed = run(loaded)
    assert original.exec_time == replayed.exec_time
    assert original.stats.read_snoops == replayed.stats.read_snoops


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_wrong_format_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"format": "something-else"}) + "\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    base = {"format": "flexsnoop-trace", "name": "x", "cores_per_cmp": 1,
            "num_cores": 1}
    headers = [
        (dict(base, version=99, total_accesses=0), "unsupported trace version"),
        (dict(base, version=1, total_accesses=0), "unsupported trace version"),
        # A v2 header without its total could hide a truncated file.
        (dict(base, version=2), "missing 'total_accesses'"),
    ]
    for header, message in headers:
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(TraceFormatError, match=message):
            load_trace(path)


def test_garbage_header_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_core_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [
        json.dumps({"format": "flexsnoop-trace", "version": 2,
                    "name": "x", "cores_per_cmp": 1, "num_cores": 1,
                    "total_accesses": 0}),
        json.dumps({"core": 5, "accesses": []}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match="out of range"):
        load_trace(path)


def test_named_workload_roundtrip(tmp_path):
    workload = build_workload("specjbb", accesses_per_core=100)
    path = tmp_path / "jbb.jsonl"
    save_trace(workload, path)
    loaded = load_trace(path)
    assert loaded.total_accesses == workload.total_accesses
    assert loaded.name == "SPECjbb"


# ----------------------------------------------------------------------
# Format v2: chunked records, streaming scan/replay


def test_save_trace_writes_v2_chunks(tmp_path):
    workload = small_workload()
    path = tmp_path / "trace.jsonl"
    save_trace(workload, path, chunk_size=16)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["version"] == 2
    assert header["total_accesses"] == workload.total_accesses
    access_records = [
        json.loads(line) for line in lines[1:]
        if "accesses" in json.loads(line)
    ]
    # 100 accesses per core at chunk 16 -> 7 chunks per core.
    assert len(access_records) == workload.num_cores * 7
    assert all(len(r["accesses"]) <= 16 for r in access_records)


def test_scan_matches_load(tmp_path):
    from repro.workloads.io import iter_core_accesses, scan_trace

    workload = small_workload()
    path = tmp_path / "trace.jsonl"
    save_trace(workload, path, chunk_size=8)
    scan = scan_trace(path)
    assert scan.name == workload.name
    assert scan.total_accesses == workload.total_accesses
    assert scan.prewarm == workload.prewarm
    for core in range(workload.num_cores):
        assert list(iter_core_accesses(scan, core)) == \
            workload.traces[core]


def test_read_header_peeks_geometry(tmp_path):
    from repro.workloads.io import read_header

    workload = small_workload()
    path = tmp_path / "trace.jsonl"
    save_trace(workload, path)
    header = read_header(path)
    assert header["num_cores"] == workload.num_cores
    assert header["cores_per_cmp"] == workload.cores_per_cmp


def test_truncated_v2_file_rejected(tmp_path):
    workload = small_workload()
    path = tmp_path / "trace.jsonl"
    save_trace(workload, path, chunk_size=8)
    lines = path.read_text().splitlines(keepends=True)
    # Drop the last access record (the file ends with prewarm
    # records): the header's total no longer matches.
    last = max(
        i for i, line in enumerate(lines) if '"accesses"' in line
    )
    path.write_text("".join(lines[:last] + lines[last + 1:]))
    with pytest.raises(TraceFormatError, match="truncated"):
        load_trace(path)
    from repro.workloads.io import scan_trace
    with pytest.raises(TraceFormatError, match="truncated"):
        scan_trace(path)


def test_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [
        json.dumps({"format": "flexsnoop-trace", "version": 2,
                    "name": "x", "cores_per_cmp": 1, "num_cores": 1,
                    "total_accesses": 1}),
        json.dumps({"core": 0, "accesses": [[1, 0, 0]]}),
        "{broken",
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=r"bad\.jsonl:3"):
        load_trace(path)


def test_bad_access_value_positions_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [
        json.dumps({"format": "flexsnoop-trace", "version": 2,
                    "name": "x", "cores_per_cmp": 1, "num_cores": 1,
                    "total_accesses": 1}),
        json.dumps({"core": 0, "accesses": [[1, 0, -5]]}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=r"bad\.jsonl:2"):
        load_trace(path)


def test_blank_line_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [
        json.dumps({"format": "flexsnoop-trace", "version": 2,
                    "name": "x", "cores_per_cmp": 1, "num_cores": 1,
                    "total_accesses": 0}),
        "",
        json.dumps({"core": 0, "accesses": []}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=":2"):
        load_trace(path)


def test_bad_geometry_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps({"format": "flexsnoop-trace", "version": 2,
                    "name": "x", "cores_per_cmp": 3, "num_cores": 4,
                    "total_accesses": 0}) + "\n"
    )
    with pytest.raises(TraceFormatError, match="geometry"):
        load_trace(path)
