"""Single-process performance snapshots (``flexsnoop bench``).

The perf trajectory of this repo is tracked by committed
``BENCH_<pr>.json`` files at the repository root.  Each snapshot
records the serial (``jobs=1``) throughput of the main fig8 matrix -
all seven algorithms over the three paper workloads - at a fixed
benchmark scale::

    {"pr": 6, "core": "soa", "accesses_per_sec": ...,
     "events_per_sec": ..., "matrix_wall_s": ...,
     "env": {"cpu_model": ..., "cpu_count": ..., "python": ...}}

``accesses_per_sec`` (simulated core accesses per wall-clock second)
is the headline number: it is what hot-path optimizations move and
what CI's perf-smoke job guards.  ``events_per_sec`` is engine
throughput; the two diverge when a change alters events-per-access
(hop batching, for example, lowers events while accesses stay fixed).

``env`` is the *environment fingerprint*: committed snapshots are
taken on whatever machine the author had, so an absolute ratio
against them is only meaningful when the fingerprints match.  The CI
perf-smoke job therefore re-measures a same-machine baseline (the
``object`` core at the committed snapshot's scale) before computing
any ratio, and :func:`check_regression` reports when it is comparing
across machines instead of failing spuriously.

``core`` selects the simulation-core implementation (registry kind
``core``): ``object`` is the default per-subsystem model, ``soa`` the
struct-of-arrays fused loop introduced with PR 6.

Measurement protocol: every trial builds a fresh
:class:`~repro.harness.experiments.ExperimentMatrix` with the
persistent result cache disabled, so all 21 cells are actually
simulated; the snapshot keeps the best of ``trials`` runs, which
filters scheduler noise without hiding real regressions.  Workload
sources are memoized per process (see ``parallel._cached_source``), so
trials after the first measure simulation alone - another reason
best-of is the right statistic.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.harness.experiments import ExperimentMatrix
from repro.harness.result_cache import ResultCache

#: PR number stamped into snapshots written by the current code.
SNAPSHOT_PR = 8

#: Accesses per core for the benchmark matrix.  Large enough that the
#: simulation (not trace generation or interpreter warmup) dominates,
#: small enough that three trials finish in well under a minute.
DEFAULT_BENCH_SCALE = 300

#: Relative accesses/sec drop tolerated by :func:`check_regression`.
#: Generous because CI machines are shared and noisy; a real hot-path
#: regression (an accidental O(N) scan, a dropped fast path) costs far
#: more than 30%.
DEFAULT_TOLERANCE = 0.30


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
    """The machine identity stamped into snapshots.

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


def same_environment(a: Optional[Dict], b: Optional[Dict]) -> bool:
    """Whether two snapshots' fingerprints describe the same setup.

    Missing fingerprints (pre-PR-6 snapshots) never match: the safe
    assumption about an unknown machine is that it is a different one.
    """
    if not a or not b:
        return False
    keys = ("cpu_model", "cpu_count", "python")
    return all(a.get(key) == b.get(key) for key in keys)


@dataclass(frozen=True)
class PerfSnapshot:
    """One committed perf measurement (the BENCH_<pr>.json schema)."""

    pr: int
    accesses_per_sec: float
    events_per_sec: float
    matrix_wall_s: float
    core: str = "object"
    #: Snoop topology the matrix ran on; "ring" is the comparable
    #: default (snapshots taken on hier_ring simulate different
    #: machines and are not ratio-comparable against ring baselines).
    topology: str = "ring"
    env: Optional[Dict[str, object]] = field(default=None)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def measure_matrix(
    accesses_per_core: int = DEFAULT_BENCH_SCALE,
    seed: int = 0,
    core: str = "object",
    topology: Optional[str] = None,
) -> PerfSnapshot:
    """Run the main matrix once, serially and uncached, and time it."""
    matrix = ExperimentMatrix(
        accesses_per_core=accesses_per_core,
        seed=seed,
        jobs=1,
        result_cache=ResultCache(enabled=False),
        core=core,
        topology=topology,
    )
    start = time.perf_counter()
    matrix.run_main_matrix()
    wall = time.perf_counter() - start
    results = list(matrix._cache.values())
    accesses = sum(r.stats.reads + r.stats.writes for r in results)
    events = sum(r.events for r in results)
    return PerfSnapshot(
        pr=SNAPSHOT_PR,
        accesses_per_sec=round(accesses / wall, 1),
        events_per_sec=round(events / wall, 1),
        matrix_wall_s=round(wall, 3),
        core=core,
        topology=topology if topology is not None else "ring",
        env=environment_fingerprint(),
    )


def run_snapshot(
    trials: int = 3,
    accesses_per_core: int = DEFAULT_BENCH_SCALE,
    seed: int = 0,
    core: str = "object",
    topology: Optional[str] = None,
) -> PerfSnapshot:
    """Best-of-``trials`` matrix measurement."""
    if trials < 1:
        raise ValueError("need at least one trial")
    best: Optional[PerfSnapshot] = None
    for _ in range(trials):
        snapshot = measure_matrix(accesses_per_core, seed, core, topology)
        if best is None or snapshot.accesses_per_sec > best.accesses_per_sec:
            best = snapshot
    assert best is not None
    return best


def write_snapshot(snapshot: PerfSnapshot, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(snapshot.to_json())


def load_snapshot(path: str) -> PerfSnapshot:
    """Load a committed snapshot; tolerates pre-PR-6 files that lack
    the ``core`` and ``env`` fields."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    env = data.get("env")
    return PerfSnapshot(
        pr=int(data["pr"]),
        accesses_per_sec=float(data["accesses_per_sec"]),
        events_per_sec=float(data["events_per_sec"]),
        matrix_wall_s=float(data["matrix_wall_s"]),
        core=str(data.get("core", "object")),
        topology=str(data.get("topology", "ring")),
        env=dict(env) if isinstance(env, dict) else None,
    )


def check_regression(
    current: PerfSnapshot,
    baseline: PerfSnapshot,
    tolerance: float = DEFAULT_TOLERANCE,
) -> str:
    """Compare ``current`` against a committed ``baseline``.

    Returns a human-readable verdict; raises :class:`RuntimeError`
    when accesses/sec dropped by more than ``tolerance`` (the CI
    perf-smoke contract).  When the two snapshots carry different
    environment fingerprints the ratio is *advisory*: the verdict says
    so and no regression is raised, because a committed snapshot from
    a different machine says nothing about this one (the PR 5 gate
    tripped exactly this way).  CI obtains a binding ratio by
    re-measuring a same-machine baseline first.
    """
    ratio = current.accesses_per_sec / baseline.accesses_per_sec
    verdict = (
        "accesses/sec: %.1f current vs %.1f baseline (PR %d) -> %.2fx"
        % (
            current.accesses_per_sec,
            baseline.accesses_per_sec,
            baseline.pr,
            ratio,
        )
    )
    if current.topology != baseline.topology:
        return (
            verdict
            + " [advisory: snapshots simulate different topologies "
            "(%s vs %s)]" % (current.topology, baseline.topology)
        )
    if not same_environment(current.env, baseline.env):
        return (
            verdict
            + " [advisory: baseline measured on a different machine "
            "or lacks an environment fingerprint]"
        )
    if ratio < 1.0 - tolerance:
        raise RuntimeError(
            "perf regression: %s is below the %.0f%% tolerance"
            % (verdict, tolerance * 100)
        )
    return verdict


# ----------------------------------------------------------------------
# Per-subsystem breakdown (``flexsnoop bench --breakdown``)

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


def measure_breakdown(
    accesses_per_core: int = DEFAULT_BENCH_SCALE,
    seed: int = 0,
    core: str = "object",
    topology: Optional[str] = None,
) -> Dict[str, float]:
    """One profiled matrix run, aggregated to per-subsystem seconds.

    Buckets internal time (``tottime``) by source file: walker /
    datapath / predictor / engine for the object core, whose hot path
    is spread across those modules.  The SoA core executes its whole
    hot path inside one fused frame in ``soa.py``, so its time lands
    in a single ``soa-core`` bucket - per-subsystem attribution inside
    the fused loop would require the very per-call dispatch the core
    exists to avoid.  Both cores' prewarm walk (``prewarm.py``) has
    its own ``prewarm`` bucket.

    Profiling overhead inflates the wall clock (cProfile traces every
    call), so the absolute seconds here are not comparable with
    :func:`measure_matrix` numbers; the *relative* split is the
    useful output.
    """
    import cProfile
    import pstats

    matrix = ExperimentMatrix(
        accesses_per_core=accesses_per_core,
        seed=seed,
        jobs=1,
        result_cache=ResultCache(enabled=False),
        core=core,
        topology=topology,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    matrix.run_main_matrix()
    profiler.disable()
    stats = pstats.Stats(profiler)
    buckets: Dict[str, float] = {}
    for (filename, _lineno, _name), row in stats.stats.items():  # type: ignore[attr-defined]
        internal_time = row[2]
        label = _SUBSYSTEM_FILES.get(os.path.basename(filename), "other")
        buckets[label] = buckets.get(label, 0.0) + internal_time
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
