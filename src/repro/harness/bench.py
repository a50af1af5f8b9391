"""Measurement helpers: the environment fingerprint and the
per-subsystem split of a profile.

The perf record of this repository is the end-to-end benchmark in
``benchmarks/e2e`` (``BENCHMARK.json``): it times cold ``flexsnoop``
commands from outside and stamps each result file with
:func:`environment_fingerprint`.  The committed ``BENCH_<pr>.json``
files at the repository root are history from before it.

:func:`subsystem_split` buckets a cProfile run by source file; the
``flexsnoop profile`` command prints it after its pstats rows.
"""

from __future__ import annotations

import os
import platform
import pstats
from typing import Dict


def _cpu_model() -> str:
    """Best-effort CPU model string (``/proc/cpuinfo`` on Linux)."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                key, sep, value = line.partition(":")
                if sep and key.strip() in ("model name", "Model", "cpu"):
                    return value.strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def environment_fingerprint() -> Dict[str, object]:
    """The machine identity stamped into benchmark results.

    Coarse on purpose: it only needs to answer "was this measured on
    the same kind of machine?", not to identify a host.
    """
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": _available_cpus(),
        "python": platform.python_version(),
    }


def _available_cpus() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the whole machine even when the process
    is pinned to a subset (containers, ``taskset``, CI runners) - the
    same trap ``default_jobs()`` avoids - and a pinned run is not
    comparable to a whole-machine run, so the fingerprint must record
    the affinity-aware count.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Per-subsystem split of a profile (``flexsnoop profile``)

#: Source-file basename -> subsystem label.  Files not listed are
#: "other" (workload generation, stats assembly, stdlib frames).
_SUBSYSTEM_FILES: Dict[str, str] = {
    "walker.py": "walker",
    "primitives.py": "walker",
    "datapath.py": "datapath",
    "cache.py": "datapath",
    "memory.py": "datapath",
    "node.py": "datapath",
    "predictors.py": "predictor",
    "engine.py": "engine",
    "transactions.py": "engine",
    "system.py": "engine",
    "warmup.py": "engine",
    "prewarm.py": "prewarm",
    "soa.py": "soa-core",
}


def subsystem_split(stats: pstats.Stats) -> Dict[str, float]:
    """A profile's internal time (``tottime``) per subsystem, largest
    first.

    Buckets by source file: walker / datapath / predictor / engine for
    the object core, whose hot path is spread across those modules.
    The SoA core executes its whole hot path inside one fused frame in
    ``soa.py``, so its time lands in a single ``soa-core`` bucket.
    Both cores' prewarm walk (``prewarm.py``) has its own ``prewarm``
    bucket.  cProfile inflates the wall clock, so the relative split
    is the signal, not the seconds.
    """
    buckets: Dict[str, float] = {}
    for (filename, _lineno, _name), row in stats.stats.items():  # type: ignore[attr-defined]
        label = _SUBSYSTEM_FILES.get(os.path.basename(filename), "other")
        buckets[label] = buckets.get(label, 0.0) + row[2]
    return dict(
        sorted(buckets.items(), key=lambda item: item[1], reverse=True)
    )


def format_breakdown(buckets: Dict[str, float]) -> str:
    total = sum(buckets.values()) or 1.0
    lines = ["per-subsystem time (profiled, relative split is the signal):"]
    for label, seconds in buckets.items():
        lines.append(
            "  %-10s %7.3f s  %5.1f%%"
            % (label, seconds, 100.0 * seconds / total)
        )
    return "\n".join(lines)
