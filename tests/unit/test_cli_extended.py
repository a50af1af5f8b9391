"""Tests for the report, trace and cache CLI subcommands, and the
parallel/caching options of the matrix commands."""

from __future__ import annotations

import pytest

from repro.harness.cli import build_parser, main
from repro.harness.result_cache import CACHE_DIR_ENV, ResultCache
from repro.workloads.io import load_trace


def test_cli_trace_writes_file(tmp_path):
    out = tmp_path / "jbb.jsonl"
    code = main(
        [
            "trace",
            "workload",
            "--workload",
            "specjbb",
            "--scale",
            "100",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    workload = load_trace(out)
    assert workload.name == "SPECjbb"
    assert workload.num_cores == 8


def test_cli_trace_record_show_audit_roundtrip(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    code = main(
        [
            "trace",
            "record",
            "--algorithm",
            "subset",
            "--workload",
            "specjbb",
            "--scale",
            "100",
            "--out",
            str(out),
            "--audit",
            "--sample-window",
            "5000",
        ]
    )
    assert code == 0
    recorded = capsys.readouterr().out
    assert "audit: ok" in recorded
    assert "timeline:" in recorded
    assert out.exists()

    code = main(["trace", "show", str(out), "--limit", "1"])
    assert code == 0
    shown = capsys.readouterr().out
    assert "issue" in shown
    assert "retire" in shown
    assert "elided" in shown

    code = main(["trace", "show", str(out), "--txn", "999999"])
    assert code == 0
    assert "no events match" in capsys.readouterr().out

    code = main(["trace", "audit", str(out)])
    assert code == 0
    assert "audit: ok" in capsys.readouterr().out


def test_cli_trace_audit_flags_corrupted_trace(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert (
        main(
            [
                "trace",
                "record",
                "--algorithm",
                "lazy",
                "--workload",
                "specjbb",
                "--scale",
                "100",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    # Drop every retirement: every transaction now violates the
    # issue-retires-exactly-once rule.
    lines = [
        line
        for line in out.read_text().splitlines()
        if '"ev": "retire"' not in line
    ]
    out.write_text("\n".join(lines) + "\n")
    assert main(["trace", "audit", str(out)]) == 1
    assert "violation" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["audit", "show"])
@pytest.mark.parametrize(
    "content", [None, '{"meta": {}}\n[1, 2]\n'], ids=["missing", "malformed"]
)
def test_cli_trace_unreadable_file_is_one_line(
    tmp_path, capsys, command, content
):
    path = tmp_path / "run.jsonl"
    if content is not None:
        path.write_text(content)
    assert main(["trace", command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("flexsnoop: ")
    if content is not None:
        assert "run.jsonl:2: malformed event" in captured.err


@pytest.fixture(scope="module")
def exact_trace(tmp_path_factory):
    """A recorded Exact trace: transactions plus machine events
    (conflict downgrades) on several nodes."""
    path = tmp_path_factory.mktemp("show") / "exact.jsonl"
    code = main(
        [
            "trace", "record", "--algorithm", "exact", "--workload",
            "specweb", "--scale", "30", "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.mark.parametrize("limit", [None, "0", "3"], ids=lambda v: "limit%s" % v)
@pytest.mark.parametrize(
    "criteria",
    [
        [],
        ["--txn", "5"],
        ["--address", "0x97b1dcdaf"],
        ["--node", "2"],
        ["--address", "0x97b1dcdaf", "--node", "3"],
    ],
    ids=" ".join,
)
def test_cli_trace_show_streams_what_the_listed_trace_renders(
    exact_trace, capsys, criteria, limit
):
    from repro.obs.jsonl import read_trace
    from repro.obs.render import filter_events, render_timeline

    capsys.readouterr()
    args = list(criteria) + (["--limit", limit] if limit else [])
    assert main(["trace", "show", str(exact_trace)] + args) == 0
    shown = capsys.readouterr().out

    meta, events = read_trace(str(exact_trace))
    options = dict(zip(criteria[::2], criteria[1::2]))
    selected = filter_events(
        events,
        address=int(options["--address"], 0) if "--address" in options else None,
        txn=int(options["--txn"]) if "--txn" in options else None,
        node=int(options["--node"]) if "--node" in options else None,
    )
    expected = "trace: %s/%s  (%d of %d event(s) match)\n%s\n" % (
        meta["algorithm"],
        meta["workload"],
        len(selected),
        len(events),
        render_timeline(selected, limit=int(limit) if limit else None),
    )
    assert any(e.txn < 0 for e in events), "no machine events to filter"
    assert shown == expected


def test_cli_report_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.md"
    code = main(
        [
            "report",
            "--scale",
            "100",
            "--figures",
            "6,7",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    text = out_file.read_text()
    assert "Figure 6" in text and "Figure 7" in text
    assert "Figure 8" not in text
    assert "Headline" in text


# ----------------------------------------------------------------------
# Parallel / cache options


def test_cli_matrix_options_parse():
    parser = build_parser()
    args = parser.parse_args(["figure", "6", "--jobs", "4", "--no-cache"])
    assert args.jobs == 4 and args.no_cache is True
    args = parser.parse_args(["figure", "6"])
    assert args.jobs == 0 and args.no_cache is False
    args = parser.parse_args(["report", "--jobs", "2"])
    assert args.jobs == 2
    args = parser.parse_args(["cache", "clear"])
    assert args.action == "clear"


def test_cli_figure_cache_lifecycle(tmp_path, monkeypatch, capsys):
    """One flow through the cached CLI: cold run populates the cache,
    warm run reproduces the output from it, ``cache info``/``clear``
    manage it, ``--no-cache`` bypasses it."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cli-cache"))
    args = ["figure", "6", "--scale", "50", "--jobs", "1"]

    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "Figure 6" in cold
    entries = ResultCache().entry_count()
    assert entries > 0  # the run populated the persistent cache

    # Warm invocation: served entirely from the cache, same output.
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert warm == cold
    assert ResultCache().entry_count() == entries

    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and str(tmp_path / "cli-cache") in out

    assert main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "removed %d" % entries in out
    assert ResultCache().entry_count() == 0

    # --no-cache leaves the (now empty) cache untouched.
    assert main(args + ["--no-cache"]) == 0
    assert capsys.readouterr().out == cold
    assert ResultCache().entry_count() == 0


# ----------------------------------------------------------------------
# Failure paths: unknown component names exit 2 with the registry's
# uniform error on stderr (same message as the library paths).


@pytest.mark.parametrize(
    "argv, kind, known_sample",
    [
        (
            ["run", "--algorithm", "nonexistent", "--scale", "10"],
            "algorithm",
            "lazy",
        ),
        (
            ["run", "--workload", "nonexistent", "--scale", "10"],
            "workload",
            "splash2",
        ),
        (
            ["run", "--predictor", "Sub4k", "--scale", "10"],
            "predictor",
            "Sub2k",
        ),
        (
            [
                "trace",
                "workload",
                "--workload",
                "nonexistent",
                "--out",
                "/dev/null",
            ],
            "workload",
            "specjbb",
        ),
    ],
)
def test_cli_unknown_component_exits_2(argv, kind, known_sample, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unknown %s" % kind in err
    assert "known:" in err and known_sample in err


def test_cli_profile_prints_hot_spots_and_subsystem_split(capsys):
    assert main(["profile", "--scale", "20", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "profiled exact/" in out
    assert "function calls" in out
    head, _, split = out.partition("per-subsystem time")
    assert "ncalls" in head
    rows = {line.split()[0] for line in split.splitlines()[1:] if line.strip()}
    assert {"walker", "datapath", "engine"} <= rows


def test_cli_cache_clear_empty_store(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "empty-cache"))
    assert main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "removed 0" in out
    assert ResultCache().entry_count() == 0


# ----------------------------------------------------------------------
# Streaming sinks, conversion and cache pruning


def test_cli_trace_record_file_matches_write_trace(tmp_path):
    from repro.obs.jsonl import write_trace
    from repro.obs.runner import run_traced

    out = tmp_path / "run.jsonl"
    assert main(
        [
            "trace", "record", "--algorithm", "subset",
            "--workload", "specjbb", "--scale", "100",
            "--out", str(out),
        ]
    ) == 0
    traced = run_traced("subset", "specjbb", accesses_per_core=100)
    reference = tmp_path / "reference.jsonl"
    write_trace(str(reference), traced.events, traced.meta)
    assert out.read_bytes() == reference.read_bytes()


def test_cli_trace_record_unwritable_out_fails_before_the_run(
    tmp_path, capsys, monkeypatch
):
    from repro.sim.system import RingMultiprocessor

    def no_run(self, *args, **kwargs):
        raise AssertionError("simulated despite an unwritable --out")

    monkeypatch.setattr(RingMultiprocessor, "run", no_run)
    out = tmp_path / "missing_dir" / "x.jsonl"
    code = main(
        [
            "trace", "record", "--algorithm", "lazy",
            "--workload", "specjbb", "--scale", "100",
            "--out", str(out), "--audit",
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("flexsnoop: ")
    assert "missing_dir" in captured.err


def _recorded_lines(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(
        [
            "trace", "record", "--algorithm", "criticality",
            "--workload", "splash2", "--scale", "40",
            "--out", str(out),
        ]
    ) == 0
    capsys.readouterr()
    return out, out.read_text().splitlines()


def test_cli_trace_audit_malformed_line_after_audited_transactions(
    tmp_path, capsys
):
    out, lines = _recorded_lines(tmp_path, capsys)
    assert len(lines) > 5_000
    # By line 5,000 the streamed audit has closed (and dropped)
    # hundreds of transactions.
    lines[4_999] = lines[4_999][:-1]
    out.write_text("\n".join(lines) + "\n")
    assert main(["trace", "audit", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("flexsnoop: ")
    assert "run.jsonl:5000: malformed JSON" in captured.err


def test_cli_trace_audit_late_event_matches_the_list_audit(tmp_path, capsys):
    from repro.obs.audit import auditor_for
    from repro.obs.jsonl import read_trace

    out, lines = _recorded_lines(tmp_path, capsys)
    retire = next(line for line in lines if '"ev": "retire"' in line)
    out.write_text("\n".join(lines + [retire]) + "\n")
    meta, events = read_trace(str(out))
    expected = auditor_for(meta).audit(events)
    assert expected  # the duplicated retirement breaks the lifecycle
    assert main(["trace", "audit", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == (
        ["audit: %d violation(s)" % len(expected)]
        + ["  %s" % violation for violation in expected]
    )


def test_cli_trace_convert_and_replay(tmp_path, capsys):
    src = tmp_path / "mem.trace"
    dst = tmp_path / "mem.jsonl"
    src.write_text(
        "1000,0,r,0x1000\n2000,0,w,0x1040\n3000,1,r,0x2000\n"
    )
    code = main(
        [
            "trace", "convert",
            "--format", "gem5",
            "--in", str(src),
            "--out", str(dst),
            "--cores-per-cmp", "1",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "2 cores, 3 accesses" in printed
    loaded = load_trace(dst)
    assert loaded.total_accesses == 3


def test_cli_trace_convert_bad_input_exits_1(tmp_path, capsys):
    src = tmp_path / "mem.trace"
    src.write_text("definitely,not,right\n")
    code = main(
        [
            "trace", "convert",
            "--format", "gem5",
            "--in", str(src),
            "--out", str(tmp_path / "out.jsonl"),
        ]
    )
    assert code == 1
    assert "flexsnoop:" in capsys.readouterr().err


def test_cli_run_replays_trace_file(tmp_path, capsys):
    trace_path = tmp_path / "jbb.jsonl"
    assert main(
        ["trace", "workload", "--workload", "specjbb",
         "--scale", "100", "--out", str(trace_path)]
    ) == 0
    capsys.readouterr()
    code = main(
        ["run", "--algorithm", "lazy",
         "--workload", "file:%s" % trace_path, "--scale", "0"]
    )
    assert code == 0
    assert "exec time" in capsys.readouterr().out


def test_cli_cache_prune(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    cache = ResultCache()
    import os

    for i, tag in enumerate("abcd"):
        key = (tag * 64)[:64]
        path = cache._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"x" * 1024)
        os.utime(path, (1_000_000 + i, 1_000_000 + i))

    code = main(["cache", "prune", "--max-size", "2K"])
    assert code == 0
    assert "removed 2 entry(ies)" in capsys.readouterr().out
    assert ResultCache().entry_count() == 2


def test_cli_cache_prune_requires_max_size(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    code = main(["cache", "prune"])
    assert code == 2
    assert "--max-size" in capsys.readouterr().err


def test_cli_cache_prune_bad_size_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    with pytest.raises(SystemExit):
        main(["cache", "prune", "--max-size", "lots"])


@pytest.mark.parametrize(
    "text, expected",
    [("4096", 4096), ("64K", 65536), ("1M", 1 << 20),
     ("2g", 2 << 30), ("1.5K", 1536)],
)
def test_parse_size(text, expected):
    from repro.harness.cli import _parse_size

    assert _parse_size(text) == expected
