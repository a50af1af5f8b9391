#!/usr/bin/env python
"""Bounded-memory smoke test for ``flexsnoop trace audit``.

Claim under test: the audit streams the trace through the online
auditor, so its peak memory follows the transactions in flight, not
the trace's length.

Protocol:

1. Record one trace of N events with ``flexsnoop trace record`` (the
   end-to-end benchmark's trace-audit cell: Criticality on splash2 at
   1000 accesses per core, warmup 0.35; N = 209,891).
2. Write a 4N trace: the header, then four copies of the events, each
   copy's transaction ids and times offset past the previous copy's.
   Every transaction of a copy retires before the next copy starts,
   so the 4N trace audits clean.
3. Audit each trace in a fresh process (``--probe``), which runs
   ``flexsnoop trace audit`` and prints its own peak RSS
   (``getrusage(RUSAGE_SELF).ru_maxrss``) as JSON.
4. Fail unless both audits pass, the 4N audit stays under an absolute
   budget, and its peak RSS is within ``MAX_RSS_RATIO`` of the N
   audit's (an audit that holds every event would show ~4x).

Exit status 0 on success, 1 with a diagnostic on failure.  Run it
from the repository root: ``python scripts/audit_memory_smoke.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: The recorded cell (``benchmarks/e2e``'s trace-audit workload).
RECORD_ARGS = [
    "trace", "record", "--algorithm", "criticality",
    "--workload", "splash2", "--scale", "1000", "--warmup", "0.35",
]
COPIES = 4

#: The 4N audit must fit under this many MiB of peak RSS ...
ABS_BUDGET_MIB = 96
#: ... and within this factor of the N audit's peak RSS.
MAX_RSS_RATIO = 1.2


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep * bool(
        env.get("PYTHONPATH")
    ) + env.get("PYTHONPATH", "")
    return env


def _lines(path: str):
    """The trace's lines as JSON objects, parsed with plain json so the
    inputs do not depend on the reader under test."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def write_copies(path: str, out: str, copies: int) -> int:
    """Write ``copies`` back-to-back copies of the trace at ``path`` to
    ``out``; returns the event count written."""
    meta = {}
    last_time = last_txn = count = 0
    for record in _lines(path):
        if "ev" not in record:
            meta.update(record["meta"])
            continue
        last_time = max(last_time, record["t"])
        last_txn = max(last_txn, record["txn"])
        count += 1
    count *= copies
    with open(out, "w", encoding="utf-8") as handle:
        meta["num_events"] = count
        handle.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for copy in range(copies):
            for record in _lines(path):
                if "ev" not in record:
                    continue
                record["t"] += copy * (last_time + 1)
                if record["txn"] >= 0:
                    record["txn"] += copy * (last_txn + 1)
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    return count


def probe(path: str) -> None:
    """Audit ``path`` in this process; print the CLI's verdict line and
    this process's peak RSS as JSON on the last line."""
    from repro.harness.cli import main

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = main(["trace", "audit", path])
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        rss_kib //= 1024
    print(json.dumps({
        "exit": code, "stdout": captured.getvalue().strip(), "rss_kib": rss_kib,
    }))


def run_probe(path: str) -> dict:
    output = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", path],
        check=True, capture_output=True, text=True, env=_env(),
    ).stdout
    return json.loads(output.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--probe":
        probe(sys.argv[2])
        return 0
    with tempfile.TemporaryDirectory(prefix="flexsnoop-audit-smoke-") as tmp:
        small = os.path.join(tmp, "n.jsonl")
        large = os.path.join(tmp, "4n.jsonl")
        print("recording %s ..." % " ".join(RECORD_ARGS[2:]))
        subprocess.run(
            [sys.executable, "-m", "repro.harness.cli"]
            + RECORD_ARGS + ["--out", small],
            check=True, env=_env(),
        )
        print("writing %d copies ..." % COPIES)
        events = write_copies(small, large, COPIES)
        results = {}
        for label, path in (("N", small), ("%dN" % COPIES, large)):
            result = run_probe(path)
            results[label] = result
            print("audit %-3s peak RSS %.1f MiB: %s"
                  % (label, result["rss_kib"] / 1024.0, result["stdout"]))
        small_r, large_r = results["N"], results["%dN" % COPIES]
        ratio = large_r["rss_kib"] / max(small_r["rss_kib"], 1)
        print("%d events; RSS ratio %dN/N: %.3f (budget %.2f); "
              "absolute %.1f MiB (budget %d MiB)"
              % (events, COPIES, ratio, MAX_RSS_RATIO,
                 large_r["rss_kib"] / 1024.0, ABS_BUDGET_MIB))
        failed = False
        for label, result in results.items():
            if result["exit"] != 0 or "audit: ok" not in result["stdout"]:
                print("FAIL: the %s trace did not audit clean" % label)
                failed = True
        if large_r["rss_kib"] > ABS_BUDGET_MIB * 1024:
            print("FAIL: the %dN audit exceeded the absolute budget" % COPIES)
            failed = True
        if ratio > MAX_RSS_RATIO:
            print("FAIL: audit peak RSS grew with trace length")
            failed = True
        if failed:
            return 1
        print("OK: audit memory is independent of trace length")
        return 0


if __name__ == "__main__":
    sys.exit(main())
