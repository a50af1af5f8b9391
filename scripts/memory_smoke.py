#!/usr/bin/env python
"""Constant-memory smoke test for streaming trace replay.

Claim under test: replaying a ``flexsnoop-trace`` file through the
streaming pipeline (``file:`` workload source feeding the simulator,
``jsonl`` trace sink streaming events back out) uses peak memory
independent of trace length.

Protocol:

1. The driver writes two synthetic JSONL traces *without ever
   materializing them* (records are emitted chunk by chunk): a small
   one and a large one at ``SCALE_RATIO`` times more accesses (the
   large one has >= 1M accesses).
2. For each trace it re-invokes this script with ``--probe``, which
   replays the trace via ``repro.obs.runner.run_traced`` with a
   streaming sink and prints its peak RSS as JSON: the larger of its
   own (``getrusage(RUSAGE_SELF).ru_maxrss``) and that of its reaped
   children (``RUSAGE_CHILDREN``), because the stream sink's events
   are encoded in a child process that ``run_traced`` joins before it
   returns.  A fresh process per probe makes the RSS numbers
   comparable.
3. The driver asserts the large replay stays under an absolute
   budget AND within ``MAX_RSS_RATIO`` of the small replay - if
   memory scaled with trace length, the ratio would approach
   ``SCALE_RATIO``.

Exit status 0 on success, 1 with a diagnostic on failure.  Run it
from the repository root: ``python scripts/memory_smoke.py``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import tempfile

SMALL_ACCESSES = 250_000
LARGE_ACCESSES = 1_000_000
SCALE_RATIO = LARGE_ACCESSES // SMALL_ACCESSES

#: The large replay must fit well under this many MiB of peak RSS.
ABS_BUDGET_MIB = 512

#: ...and within this factor of the small replay's peak RSS (a
#: trace-length-proportional pipeline would show ~SCALE_RATIO=4x).
MAX_RSS_RATIO = 1.4

NUM_CORES = 8
CHUNK = 4096


def write_synthetic_trace(path: str, total_accesses: int) -> None:
    """Stream a valid v2 trace to ``path`` in bounded memory."""
    per_core = total_accesses // NUM_CORES
    rng = random.Random(42)
    header = {
        "format": "flexsnoop-trace",
        "version": 2,
        "name": "memory-smoke",
        "cores_per_cmp": 1,
        "num_cores": NUM_CORES,
        "total_accesses": per_core * NUM_CORES,
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for core in range(NUM_CORES):
            remaining = per_core
            while remaining:
                size = min(CHUNK, remaining)
                chunk = [
                    [
                        rng.randrange(2048)
                        if rng.random() < 0.3
                        else 4096 + core * 2048 + rng.randrange(2048),
                        int(rng.random() < 0.3),
                        rng.randrange(4),
                    ]
                    for _ in range(size)
                ]
                handle.write(
                    json.dumps({"core": core, "accesses": chunk}) + "\n"
                )
                remaining -= size
        for core in range(NUM_CORES):
            handle.write(
                json.dumps({"core": core, "prewarm": []}) + "\n"
            )


def probe(trace_path: str) -> None:
    """Replay ``trace_path`` with streaming input and output, then
    print this process's peak RSS as JSON on the last line."""
    from repro.obs.runner import run_traced

    events_path = trace_path + ".events.jsonl"
    try:
        traced = run_traced(
            "lazy",
            "file:%s" % trace_path,
            warmup_fraction=0.25,
            sink="jsonl:%s" % events_path,
        )
        assert traced.events == [], "streaming sink must not buffer"
        rss_kb = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        # ru_maxrss is KiB on Linux, bytes on macOS.
        if sys.platform == "darwin":
            rss_kb //= 1024
        print(
            json.dumps(
                {
                    "rss_kib": rss_kb,
                    "exec_time": traced.result.exec_time,
                    "num_events": traced.meta["num_events"],
                    "core": traced.core,
                }
            )
        )
    finally:
        if os.path.exists(events_path):
            os.unlink(events_path)


def run_probe(trace_path: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
    )
    env["PYTHONPATH"] = src + os.pathsep * bool(
        env.get("PYTHONPATH")
    ) + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", trace_path],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return json.loads(output.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--probe":
        probe(sys.argv[2])
        return 0

    with tempfile.TemporaryDirectory(prefix="flexsnoop-smoke-") as tmp:
        small_path = os.path.join(tmp, "small.jsonl")
        large_path = os.path.join(tmp, "large.jsonl")
        print(
            "generating traces: %d and %d accesses..."
            % (SMALL_ACCESSES, LARGE_ACCESSES)
        )
        write_synthetic_trace(small_path, SMALL_ACCESSES)
        write_synthetic_trace(large_path, LARGE_ACCESSES)

        print("replaying small trace...")
        small = run_probe(small_path)
        print("  peak RSS %.1f MiB, %d events (core %s)"
              % (small["rss_kib"] / 1024.0, small["num_events"],
                 small["core"]))
        print("replaying large trace (%dx)..." % SCALE_RATIO)
        large = run_probe(large_path)
        print("  peak RSS %.1f MiB, %d events (core %s)"
              % (large["rss_kib"] / 1024.0, large["num_events"],
                 large["core"]))

        ratio = large["rss_kib"] / max(small["rss_kib"], 1)
        print(
            "RSS ratio large/small: %.3f (budget %.2f); "
            "absolute %.1f MiB (budget %d MiB)"
            % (
                ratio,
                MAX_RSS_RATIO,
                large["rss_kib"] / 1024.0,
                ABS_BUDGET_MIB,
            )
        )
        failed = False
        if large["rss_kib"] > ABS_BUDGET_MIB * 1024:
            print("FAIL: large replay exceeded the absolute budget")
            failed = True
        if ratio > MAX_RSS_RATIO:
            print(
                "FAIL: peak RSS grew with trace length "
                "(streaming regression)"
            )
            failed = True
        if failed:
            return 1
        print("OK: replay memory is independent of trace length")
        return 0


if __name__ == "__main__":
    sys.exit(main())
