"""The per-subsystem split that ``flexsnoop profile`` prints after its
pstats rows: internal time bucketed by source file."""

from __future__ import annotations

import pstats

from repro.harness.bench import format_breakdown, subsystem_split


def _stats(rows):
    """A pstats.Stats holding hand-made ``(file, tottime)`` rows."""
    stats = pstats.Stats()
    stats.stats = {
        (filename, index + 1, "f%d" % index): (1, 1, tottime, tottime, {})
        for index, (filename, tottime) in enumerate(rows)
    }
    return stats


def test_subsystem_split_buckets_tottime_by_source_file():
    split = subsystem_split(
        _stats(
            [
                ("/src/repro/sim/walker.py", 0.5),
                ("/src/repro/sim/primitives.py", 1.5),
                ("/src/repro/sim/cache.py", 1.0),
                ("/src/repro/sim/engine.py", 0.25),
                ("/src/repro/sim/system.py", 0.25),
                ("/src/repro/sim/soa.py", 3.0),
                ("~", 0.5),
                ("/usr/lib/python3/heapq.py", 0.25),
            ]
        )
    )
    assert split == {
        "soa-core": 3.0,
        "walker": 2.0,
        "datapath": 1.0,
        "other": 0.75,
        "engine": 0.5,
    }
    # Largest bucket first.
    assert list(split) == ["soa-core", "walker", "datapath", "other", "engine"]


def test_format_breakdown_prints_each_bucket_share():
    lines = format_breakdown({"walker": 3.0, "engine": 1.0}).splitlines()
    assert lines[0].startswith("per-subsystem time")
    assert lines[1].split() == ["walker", "3.000", "s", "75.0%"]
    assert lines[2].split() == ["engine", "1.000", "s", "25.0%"]
    # An empty profile prints the header alone, not a division error.
    assert format_breakdown({}).splitlines() == [lines[0]]
