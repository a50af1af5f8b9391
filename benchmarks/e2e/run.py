"""End-to-end benchmark of the ``flexsnoop`` CLI (the ``BENCHMARK.json`` command).

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
        [--trace 0|1] [--smoke] [--out results.json]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every *leg* runs one workload's ``flexsnoop`` command(s) on one
requested core, each command in a fresh child interpreter
(``leg.py``) with its own empty ``FLEXSNOOP_CACHE_DIR`` plus
``--no-cache --jobs 1``: every leg is cold, like a user's first run.
The load is a closed loop with one client - the next leg starts only
after the previous one exited - and a *round* runs one leg per core,
rotating which core goes first.  Rounds repeat until ``--seconds`` is
spent (at least one); without it each workload runs its stated count.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(legs, plus simulated cells on a traced run), ``failed`` and
``metrics``.  Untraced (``--trace 0``) it carries the end-to-end
metrics of ``BENCHMARK.json``; traced (``--trace 1``) the per-layer
metrics, measured from spans recorded around the layers' public
callables (see ``leg.py``) and written to ``.bench_e2e/spans.json``.
See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected"
WORKDIR = ROOT / ".bench_e2e"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Seed kept out of development runs, for checking a claimed gain.
HELD_OUT_SEED = 7

#: A workload run stops starting legs, and kills a running one, at
#: this many seconds: the whole command must end within 180 s.
DEADLINE_S = 165.0

#: Fig. 8 headline: Lazy -> fastest-algorithm speedup in the paper, %.
PAPER_SPEEDUP_PCT = {"splash2": 14.0, "specjbb": 13.0, "specweb": 6.0}

FALLBACK_NOTICE = "falling back to core=object"

#: Cores whose simulated event counts every traced run reports.
EVENT_CORES = ("object", "soa", "jit")

#: Numpy's BLAS thread pool stays unstarted in every child: the
#: simulator calls no BLAS, and on a 2-CPU host the pool's start-up
#: made import time bimodal (0.14 s or 0.28 s).
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Set-up probes (children that only import) started before each leg.
SETUP_PROBES_PER_LEG = 2

#: (workload, accesses per core, seed, num_cmps, think_scale): one
#: simulated cell's input, as ``resolve_source`` takes it.
CellInput = Tuple[str, int, int, int, float]


@dataclass(frozen=True)
class Workload:
    name: str
    cores: Tuple[str, ...]
    scale: int
    smoke_scale: int
    #: (core, scale, seed, scratch dir) -> [(step, flexsnoop argv)].
    commands: Callable[[str, int, int, Path], List[Tuple[str, List[str]]]]
    #: (scale, seed) -> inputs of every simulated cell.
    cells: Callable[[int, int], List[CellInput]]
    #: Rounds when no --seconds is given.
    repeats: int
    #: step -> text its stdout must contain at any seed.
    must_print: Tuple[Tuple[str, str], ...] = ()


def _figure8(core: str, scale: int, seed: int, _tmp: Path) -> List[Tuple[str, List[str]]]:
    return [("figure", [
        "figure", "8", "--scale", str(scale), "--seed", str(seed),
        "--core", core, "--jobs", "1", "--no-cache",
    ])]


def _figure8_cells(scale: int, seed: int) -> List[CellInput]:
    from repro.harness.experiments import MAIN_ALGORITHMS, WORKLOADS

    return [
        (workload, scale, seed, 0, 1.0)
        for workload in WORKLOADS
        for _ in MAIN_ALGORITHMS
    ]


LOADED_ALGORITHMS = ("lazy", "criticality")
LOADED_TOPOLOGIES = ("ring", "hier_ring")
LOADED_THINK_SCALES = (10.0, 1.0, 0.3)


def _saturation(core: str, scale: int, seed: int, _tmp: Path) -> List[Tuple[str, List[str]]]:
    return [("figure", [
        "figure", "saturation",
        "--algorithms", ",".join(LOADED_ALGORITHMS),
        "--topologies", ",".join(LOADED_TOPOLOGIES),
        "--think-scales", ",".join("%g" % s for s in LOADED_THINK_SCALES),
        "--scale", str(scale), "--seed", str(seed),
        "--core", core, "--jobs", "1", "--no-cache",
    ])]


def _saturation_cells(scale: int, seed: int) -> List[CellInput]:
    return [
        ("splash2", scale, seed, 16 if topology == "hier_ring" else 0, think)
        for _ in LOADED_ALGORITHMS
        for topology in LOADED_TOPOLOGIES
        for think in LOADED_THINK_SCALES
    ]


def _trace_audit(_core: str, scale: int, seed: int, tmp: Path) -> List[Tuple[str, List[str]]]:
    trace = str(tmp / "T.jsonl")
    return [
        ("record", [
            "trace", "record", "--algorithm", "criticality",
            "--workload", "splash2", "--scale", str(scale),
            "--seed", str(seed), "--warmup", "0.35",
            "--check-invariants", "--audit", "--out", trace,
        ]),
        ("audit", ["trace", "audit", trace]),
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-small", ("object", "soa", "jit"), 300, 40,
                 _figure8, _figure8_cells, repeats=3),
        Workload("paper-large", ("soa", "jit"), 1200, 120,
                 _figure8, _figure8_cells, repeats=2),
        Workload("loaded", ("object", "soa"), 200, 30,
                 _saturation, _saturation_cells, repeats=1),
        # ``trace record`` has no --core: the traced path is the
        # object core's.
        Workload("trace-audit", ("object",), 1000, 80,
                 _trace_audit,
                 lambda scale, seed: [("splash2", scale, seed, 0, 1.0)],
                 repeats=2,
                 must_print=(("record", "audit: ok"), ("audit", "audit: ok"))),
    )
}


# ----------------------------------------------------------------------
# Running legs


@dataclass
class Step:
    """One child process: one flexsnoop command of a leg."""

    name: str
    exit_code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    report: Optional[Dict[str, Any]]


@dataclass
class Leg:
    core: str
    round: int
    traced: bool
    steps: List[Step]
    problems: List[str]

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def setup_s(self) -> List[float]:
        return [s.report["ready"] - s.report["spawned_at"] for s in self.steps]

    @property
    def work_s(self) -> float:
        return sum(s.report["done"] - s.report["started"] for s in self.steps)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

    @property
    def rss_mb(self) -> float:
        return max(s.rss_mb for s in self.steps)

    @property
    def fallback(self) -> bool:
        return any(FALLBACK_NOTICE in s.stderr for s in self.steps)

    def provenance(self) -> Dict[str, Any]:
        first = self.steps[0].report or {}
        canonical = first.get("canonical_core")
        return {
            "round": self.round,
            "traced": self.traced,
            "requested_core": self.core,
            "canonical_core": canonical,
            "actual_core": "object" if self.fallback else canonical,
            "numba_available": first.get("numba_available"),
            "jit_disable": first.get("jit_disable"),
            "ok": self.ok,
            "problems": self.problems,
            "setup_s": self.setup_s if self.ok else None,
            "work_s": self.work_s if self.ok else None,
            "wall_s": self.wall_s,
            "rss_mb": self.rss_mb,
        }


class LegRunner:
    """Spawns leg children one at a time and reaps each before the next."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline

    def run(self, workload: Workload, core: str, scale: int, seed: int,
            round_no: int, traced: bool) -> Leg:
        tmp = self.workdir / ("%s-r%d-%s-%s" % (
            workload.name, round_no, core, "traced" if traced else "plain"))
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        steps: List[Step] = []
        problems: List[str] = []
        try:
            for name, argv in workload.commands(core, scale, seed, tmp):
                step = self._spawn(name, argv, core, traced, tmp)
                steps.append(step)
                problems += _step_problems(step)
                if problems:
                    break
            for step in steps:
                step.stdout = step.stdout.replace(str(tmp), "<TMP>")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return Leg(core, round_no, traced, steps, problems)

    def probe(self) -> List[float]:
        """One set-up sample: a child that imports and exits."""
        tmp = self.workdir / "setup-probe"
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            step = self._spawn("setup", [], "object", False, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if _step_problems(step):
            return []
        return [step.report["ready"] - step.report["spawned_at"]]

    def _spawn(self, name: str, argv: List[str], core: str, traced: bool,
               tmp: Path) -> Step:
        report_path = tmp / (name + ".report.json")
        env = dict(os.environ, **CHILD_ENV)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["FLEXSNOOP_CACHE_DIR"] = str(tmp / "cache")
        cmd = [sys.executable, str(HERE / "leg.py"), "--report", str(report_path)]
        if traced:
            cmd.append("--trace")
        cmd += ["--core", core, "--spawned-at"]
        with open(tmp / (name + ".out"), "w+", encoding="utf-8") as out, \
                open(tmp / (name + ".err"), "w+", encoding="utf-8") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                cmd + [repr(spawned), "--"] + argv, env=env, cwd=str(ROOT),
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            )
            # Reaped here with wait4 (for the child's peak RSS), so Popen
            # is told the exit code instead of waiting itself.
            proc.returncode, rss_kib = _reap(proc.pid, self.deadline)
            ended = time.monotonic()
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        report = None
        if report_path.exists():
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
        return Step(name, proc.returncode, ended - spawned, rss_kib / 1024.0,
                    stdout, stderr, report)


def _reap(pid: int, deadline: float) -> Tuple[int, int]:
    """Wait for ``pid``; returns (exit code, peak RSS in KiB).

    Polls so that a leg running past the deadline - or a benchmark
    being interrupted - kills the child and still reaps it.
    """
    delay = 0.001
    try:
        while True:
            reaped, status, rusage = os.wait4(pid, os.WNOHANG)
            if reaped:
                return os.waitstatus_to_exitcode(status), rusage.ru_maxrss
            if time.monotonic() > deadline:
                break
            time.sleep(delay)
            delay = min(delay * 2, 0.02)
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            _, status, rusage = os.wait4(pid, 0)
    return -signal.SIGKILL, rusage.ru_maxrss


def _step_problems(step: Step) -> List[str]:
    if step.exit_code != 0:
        tail = step.stderr.strip().splitlines()[-1:] or [""]
        return ["%s exited %d: %s" % (step.name, step.exit_code, tail[0])]
    if step.report is None:
        return ["%s wrote no report" % step.name]
    src = (ROOT / "src").resolve()
    if src not in Path(step.report["repro_file"]).parents:
        return ["%s imported repro from %s, not this checkout"
                % (step.name, step.report["repro_file"])]
    return []


def run_rounds(workload: Workload, cores: List[str], scale: int, seed: int,
               seconds: Optional[float], repeats: Optional[int], traced: bool,
               runner: LegRunner, started: float) -> Tuple[List[Leg], List[float]]:
    """The closed loop; returns the legs and the set-up probe times.

    A round runs one leg per core (on a traced run, a traced and an
    untraced one), rotating which core goes first, and every leg is
    preceded by set-up probes.  After the first round a leg starts
    only if its core's previous leg fits in what is left of
    ``seconds``; with ``repeats`` instead, exactly that many rounds run.
    """
    legs: List[Leg] = []
    setups: List[float] = []
    took: Dict[Tuple[str, bool], float] = {}
    round_no = 0
    while repeats is None or round_no < repeats:
        shift = round_no % len(cores)
        modes = [True, False] if round_no % 2 == 0 else [False, True]
        ran = False
        for core in cores[shift:] + cores[:shift]:
            for traced_leg in modes if traced else [False]:
                need = took.get((core, traced_leg), 0.0)
                now = time.monotonic()
                if now + need > runner.deadline or (
                        repeats is None and round_no
                        and now - started + need > (seconds or 0.0)):
                    continue
                for _ in range(SETUP_PROBES_PER_LEG):
                    setups += runner.probe()
                legs.append(runner.run(workload, core, scale, seed, round_no, traced_leg))
                took[(core, traced_leg)] = time.monotonic() - now
                ran = True
        if not ran:
            break
        round_no += 1
    return legs, setups


# ----------------------------------------------------------------------
# Output checks


def expected_path(workload: str, step: str) -> Path:
    return EXPECTED / ("%s.%s.txt" % (workload, step))


def cells_path(workload: str) -> Path:
    return EXPECTED / ("%s.cells.json" % workload)


def check_outputs(workload: Workload, legs: List[Leg], pinned: bool) -> None:
    """Fail legs whose stdout differs from the reference.

    The reference is the committed expected stdout when ``pinned``
    (default seed and scale), otherwise the first good leg of the
    object core (or of the first core that ran): at any seed every
    core must print exactly what the object core prints.
    """
    reference: Dict[str, str] = {}
    for step in {step.name for leg in legs for step in leg.steps}:
        path = expected_path(workload.name, step)
        if pinned and path.exists():
            reference[step] = path.read_text(encoding="utf-8")
    good = [leg for leg in legs if leg.ok]
    good.sort(key=lambda leg: leg.core != "object")
    for leg in good[:1]:
        for step in leg.steps:
            reference.setdefault(step.name, step.stdout)
    required = dict(workload.must_print)
    for leg in legs:
        for step in leg.steps:
            if step.name in reference and step.stdout != reference[step.name]:
                leg.problems.append("%s stdout differs from the reference" % step.name)
            if required.get(step.name, "") not in step.stdout:
                leg.problems.append("%s stdout lacks %r" % (step.name, required[step.name]))


def check_cells(workload: Workload, legs: List[Leg], pinned: bool) -> Tuple[int, int, Dict[str, str]]:
    """Compare every traced cell's summary digest across legs and cores,
    and against the committed digests when ``pinned``.  Returns
    (cells attempted, cells failed, digest per cell)."""
    expected: Dict[str, str] = {}
    if pinned and cells_path(workload.name).exists():
        expected = json.loads(cells_path(workload.name).read_text(encoding="utf-8"))
    attempted = failed = 0
    seen: Dict[str, str] = dict(expected)
    for leg in legs:
        if not leg.traced:
            continue
        for cell, facts in _cell_facts(leg):
            attempted += 1
            digest = facts["digest"]
            if seen.setdefault(cell, digest) != digest:
                failed += 1
                leg.problems.append("cell %s summary digest %s != %s"
                                    % (cell, digest[:12], seen[cell][:12]))
    return attempted, failed, seen


def _cell_facts(leg: Leg):
    """(cell id, facts) of every completed core ``run`` in a leg."""
    for step in leg.steps:
        report = step.report or {}
        facts = report.get("facts", {})
        for index, span in enumerate(report.get("spans", [])):
            if span[0].startswith("sim.") and span[0].endswith(".run"):
                fact = facts.get(str(index), {})
                if "digest" in fact:
                    yield span[4], fact


# ----------------------------------------------------------------------
# Metrics


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def _geomean(values: List[float]) -> Optional[float]:
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def total_accesses(cells: List[CellInput]) -> int:
    """Simulated accesses of a command: the sum over its cells of the
    source's ``total_accesses()`` (generated here, outside any timing)."""
    from repro.workloads.source import resolve_source

    memo: Dict[CellInput, int] = {}
    total = 0
    for cell in cells:
        if cell not in memo:
            workload, scale, seed, num_cmps, think = cell
            memo[cell] = resolve_source(
                workload, accesses_per_core=scale, seed=seed,
                num_cmps=num_cmps, think_scale=think,
            ).total_accesses()
        total += memo[cell]
    return total


def end_to_end(legs: List[Leg], cores: List[str], absent: List[str],
               accesses: int, setups: List[float]) -> Dict[str, Any]:
    """End-to-end metrics over the good untraced legs: per core the
    median over repeats; across cores the geometric mean (peak RSS:
    the maximum).  Set-up is the median over every child started."""
    plain = [leg for leg in legs if leg.ok and not leg.traced]
    metrics: Dict[str, Any] = {}
    throughput, walls, rss = [], [], []
    for core in cores:
        mine = [leg for leg in plain if leg.core == core]
        if not mine:
            continue
        throughput.append(_median([accesses / leg.work_s for leg in mine]))
        walls.append(_median([leg.wall_s for leg in mine]))
        rss.append(_median([leg.rss_mb for leg in mine]))
        metrics["acc_per_s." + core] = (throughput[-1], "1/s")
        metrics["wall_s." + core] = (walls[-1], "s")
        metrics["peak_rss_mb." + core] = (rss[-1], "MB")
    for core in absent:
        metrics["acc_per_s." + core] = ("absent", "1/s")
    setup = _median(setups + [s for leg in plain for s in leg.setup_s])
    if setup is not None:
        metrics["setup_s"] = (setup, "s")
    if throughput:
        metrics["acc_per_s"] = (_geomean(throughput), "1/s")
        metrics["wall_s"] = (_geomean(walls), "s")
        metrics["peak_rss_mb"] = (max(rss), "MB")
    return metrics


_LAYER_OF = {
    "cli.main": "harness", "parallel.execute_spec": "harness",
    "obs.run_traced": "harness", "workloads.materialize": "workloads",
    "obs.write_trace": "obs.write", "obs.read_trace": "obs.read",
    "obs.audit": "obs.audit",
}
_SIM_LAYER = {"__init__": "construct", "run": "run",
              "export_cache_image": "export_image"}


def span_layer(name: str) -> Tuple[str, Optional[str]]:
    """(layer, core) of a span name."""
    if name.startswith("sim."):
        _, core, method = name.split(".", 2)
        return "sim." + _SIM_LAYER[method], core
    return _LAYER_OF[name], None


def self_times(spans: List[List[Any]]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_round(legs: List[Leg]) -> Dict[str, float]:
    """Per-layer totals of one round's traced legs."""
    acc: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0) + value

    for leg in legs:
        add("fallback_reruns", int(leg.fallback))
        for step in leg.steps:
            report = step.report or {}
            spans = report.get("spans", [])
            facts = report.get("facts", {})
            refused_until = None
            for index, (span, own) in enumerate(zip(spans, self_times(spans))):
                layer, core = span_layer(span[0])
                fact = facts.get(str(index), {})
                add(layer, own)
                if core is not None:
                    add("%s.%s" % (layer, core), own)
                if span[3] is None:
                    add("wall", span[2] - span[1])
                    root_start = span[1]
                if fact.get("error", "").endswith("UnsupportedError"):
                    refused_until = max(refused_until or 0.0, span[2])
                if layer == "sim.run" and "digest" in fact:
                    add("cells", 1)
                    add("events", fact["events"])
                if span[0] == "workloads.materialize" and fact.get("generated"):
                    add("sources_generated", 1)
                if span[0] == "obs.run_traced":
                    add("trace_events", fact.get("events", 0))
                if span[0] == "obs.audit":
                    add("audit_events", fact["events"])
            if refused_until is not None:
                add("refused", refused_until - root_start)
    return acc


def per_layer(legs: List[Leg], cores: List[str], stdout_of: Dict[str, str],
              workload: str) -> Dict[str, Any]:
    """Per-layer metrics: medians over traced rounds of round totals,
    plus the simulated statistics of one traced leg (they are identical
    across legs and cores - the cell digests are checked)."""
    traced = [leg for leg in legs if leg.traced and leg.ok]
    rounds = sorted({leg.round for leg in traced})
    per_round = [layer_round([leg for leg in traced if leg.round == r]) for r in rounds]

    def med(key: str) -> float:
        return _median([r.get(key, 0) for r in per_round]) if per_round else 0

    def share(key: str) -> float:
        return _median([100.0 * r.get(key, 0.0) / r["wall"] for r in per_round]) or 0.0

    def rate(count: str, seconds: str) -> float:
        return _median([r.get(count, 0.0) / r[seconds] if r.get(seconds) else 0.0
                        for r in per_round]) or 0.0

    m: Dict[str, Any] = {
        "harness.self_s": (med("harness"), "s"),
        "workloads.generate_s": (med("workloads"), "s"),
        "sim.construct_s": (med("sim.construct"), "s"),
        "sim.run_s": (med("sim.run"), "s"),
        "sim.events_per_s": (rate("events", "sim.run"), "1/s"),
        "sim.loop_share": (share("sim.run"), "%"),
        "sim.export_image_share": (share("sim.export_image"), "%"),
        "obs.write_share": (share("obs.write"), "%"),
        "obs.read_share": (share("obs.read"), "%"),
        "obs.audit_share": (share("obs.audit"), "%"),
        "obs.audit_events_per_s": (rate("audit_events", "obs.audit"), "1/s"),
        "harness.refused_share": (share("refused"), "%"),
        "harness.cells": (med("cells"), "count"),
        "workloads.sources_generated": (med("sources_generated"), "count"),
        "harness.fallback_reruns": (med("fallback_reruns"), "count"),
        "obs.trace_events": (med("trace_events"), "count"),
    }
    for core in cores:
        for layer in ("sim.run", "sim.construct", "sim.export_image"):
            if med("%s.%s" % (layer, core)):
                m["%s_s.%s" % (layer, core)] = (med("%s.%s" % (layer, core)), "s")
    plain = [leg for leg in legs if leg.ok and not leg.traced]
    if traced and plain:
        ratio = sum(leg.work_s for leg in traced) / len(traced)
        ratio /= sum(leg.work_s for leg in plain) / len(plain)
        m["bench.trace_overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    m.update(simulated_counts(traced))
    m["model.paper_err_pp"] = (
        paper_error_pp(stdout_of.get("figure", "")) if workload == "paper-large" else 0.0,
        "pp",
    )
    return m


def simulated_counts(traced: List[Leg]) -> Dict[str, Any]:
    """Sums over the cells of the first traced leg (events: of each
    core's first traced leg, 0 for a core the workload does not run)."""
    m: Dict[str, Any] = {}
    for core in EVENT_CORES:
        first = next((leg for leg in traced if leg.core == core), None)
        events = sum(f["events"] for _, f in _cell_facts(first)) if first else 0
        m["model.events." + core] = (events, "count")
    if not traced:
        return m
    facts = [f for _, f in _cell_facts(traced[0])]

    def total(key: str) -> int:
        return sum(f[key] for f in facts)

    misses = total("read_miss_count")
    m.update({
        "model.exec_cycles": (total("exec_cycles"), "count"),
        "walker.read_snoops": (total("read_snoops"), "count"),
        "walker.read_ring_crossings": (total("read_ring_crossings"), "count"),
        "predictors.false_positives": (total("false_positives"), "count"),
        "predictors.false_negatives": (total("false_negatives"), "count"),
        "datapath.reads_supplied_by_cache": (total("reads_supplied_by_cache"), "count"),
        "datapath.read_miss_latency_mean_cyc": (
            total("read_miss_latency_sum") / misses if misses else 0.0, "cyc"),
        "transactions.retries": (total("retries"), "count"),
        "transactions.squashes": (total("squashes"), "count"),
        "transactions.mshr_queued": (total("mshr_queued"), "count"),
    })
    return m


def paper_error_pp(figure8: str) -> float:
    """Largest gap, in percentage points, between the simulated
    Lazy -> fastest-algorithm speedup and the paper's, over the three
    workloads.  Oracle is an unimplementable bound, so it is left out."""
    lines = figure8.splitlines()
    header = next(line.split()[1:] for line in lines if line.startswith("algorithm"))
    rows = {}
    for line in lines:
        parts = line.split()
        if len(parts) == len(header) + 1 and re.match(r"^[a-z_]+$", parts[0]):
            if parts[0] != "algorithm":
                rows[parts[0]] = [float(v) for v in parts[1:]]
    gaps = []
    for column, workload in enumerate(header):
        best = min(v[column] for a, v in rows.items() if a not in ("lazy", "oracle"))
        gaps.append(abs(100.0 * (1.0 - best) - PAPER_SPEEDUP_PCT[workload]))
    return max(gaps)


# ----------------------------------------------------------------------
# One workload


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: Workload, args: argparse.Namespace,
                 spans_out: List[Dict[str, Any]]) -> Dict[str, Any]:
    from repro.registry import REGISTRY, UnknownComponentError

    started = time.monotonic()
    cores, absent = [], []
    for core in workload.cores:
        try:
            REGISTRY.canonical("core", core)
            cores.append(core)
        except UnknownComponentError:
            absent.append(core)
    scale = workload.smoke_scale if args.smoke else workload.scale
    pinned = args.seed == 0 and not args.smoke
    accesses = total_accesses(workload.cells(scale, args.seed))
    repeats = None
    if args.smoke or args.seconds is None:
        repeats = 1 if args.smoke else workload.repeats
    runner = LegRunner(WORKDIR, started + DEADLINE_S)
    legs, setups = run_rounds(workload, cores, scale, args.seed, args.seconds,
                              repeats, args.trace, runner, started)

    check_outputs(workload, legs, pinned)
    cells_attempted, cells_failed, digests = check_cells(workload, legs, pinned)
    reference = next((leg for leg in legs if leg.ok), None)
    stdout_of = {s.name: s.stdout for s in reference.steps} if reference else {}
    metrics = end_to_end(legs, cores, absent, accesses, setups)
    if args.trace:
        metrics.update(per_layer(legs, cores, stdout_of, workload.name))
        for leg in legs:
            for step in leg.steps:
                if leg.traced and step.report:
                    spans_out.append({
                        "workload": workload.name, "core": leg.core,
                        "round": leg.round, "step": step.name,
                        "spans": step.report["spans"],
                    })
    rounds = len({leg.round for leg in legs})
    failed = sum(not leg.ok for leg in legs) + cells_failed
    return {
        "seed": args.seed,
        "scale": scale,
        "rounds": rounds,
        "accesses": accesses,
        "correct": failed == 0 and bool(legs),
        "attempted": len(legs) + cells_attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "legs": [leg.provenance() for leg in legs],
        "stdout": stdout_of,
        "digests": digests,
    }


def print_workload(name: str, result: Dict[str, Any]) -> None:
    print("== %s: seed %d, scale %d, %d round(s), %d simulated accesses per leg"
          % (name, result["seed"], result["scale"], result["rounds"], result["accesses"]))
    for leg in result["legs"]:
        timing = ("setup %s s  work %.3f s" % (
            "/".join("%.3f" % s for s in leg["setup_s"]), leg["work_s"])
            if leg["ok"] else "FAILED: " + "; ".join(leg["problems"]))
        print("  round %d %-7s %-6s -> %-6s %s  wall %.3f s  rss %.1f MB  %s" % (
            leg["round"], leg["requested_core"], "traced" if leg["traced"] else "plain",
            leg["actual_core"], "numba" if leg["numba_available"] else "python",
            leg["wall_s"], leg["rss_mb"], timing))
    for metric, entry in sorted(result["metrics"].items()):
        print("  %-40s %s %s" % (metric, entry["value"], entry["unit"]))
    print("  ops %d attempted, %d failed" % (result["attempted"], result["failed"]))


# ----------------------------------------------------------------------
# Compare


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """Print each workload x metric's two values, their ratio and the
    verdict against its bound; returns 1 if any metric failed."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"] + spec["end_to_end"]}
    exact = re.compile(r"^(model|walker|predictors|datapath|transactions)\.")
    failures = 0
    print("%-12s %-38s %14s %14s %8s  %s" % ("workload", "metric", "A", "B", "B/A", "verdict"))
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        ma = a["workloads"].get(workload, {}).get("metrics", {})
        mb = b["workloads"].get(workload, {}).get("metrics", {})
        for metric in sorted(set(ma) | set(mb)):
            va = ma.get(metric, {}).get("value")
            vb = mb.get(metric, {}).get("value")
            base = metric.split(".")[0] if metric.split(".")[0] in bounds else metric
            if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
                verdict, ratio = "absent", ""
            elif exact.match(metric):
                verdict = "PASS" if va == vb else "FAIL (must match exactly)"
                ratio = "%.4f" % (vb / va) if va else ""
            elif base in bounds and va:
                bound = bounds[base]["bound"]
                worse = vb / va - 1.0 if better.get(base) == "lower" else 1.0 - vb / va
                verdict = "PASS" if worse <= bound else "FAIL (%.1f%% worse, bound %.0f%%)" % (
                    100 * worse, 100 * bound)
                ratio = "%.4f" % (vb / va)
            else:
                verdict, ratio = "info", "%.4f" % (vb / va) if va else ""
            failures += verdict.startswith("FAIL")
            print("%-12s %-38s %14s %14s %8s  %s" % (
                workload, metric, _fmt(va), _fmt(vb), ratio, verdict))
    for side, data in (("A", a), ("B", b)):
        for workload, result in sorted(data["workloads"].items()):
            if result["failed"]:
                failures += 1
                print("%s: %s has %d failed op(s)" % (side, workload, result["failed"]))
    print("compare: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def _fmt(value: Any) -> str:
    return "%.6g" % value if isinstance(value, (int, float)) else str(value)


# ----------------------------------------------------------------------
# Command line


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed passed to every command (0: the "
                        "profiles' own seeds; %d is held out)" % HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure rounds until this budget is spent")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every scale and run one round")
    parser.add_argument("--out", help="write the full results as JSON here")
    parser.add_argument("--write-expected", action="store_true",
                        help="commit this run's outputs as the expected ones "
                        "(seed 0, full scale, traced for the cell digests)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files against the bounds")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "harness" / "cli.py").is_file():
        print("run.py: no flexsnoop source tree at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = load_benchmark()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.write_expected and (args.seed != 0 or args.smoke):
        print("run.py: --write-expected needs seed 0 at full scale", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    from repro.harness.bench import environment_fingerprint

    WORKDIR.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    spans: List[Dict[str, Any]] = []
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args, spans)
        print_workload(name, results[name])
    if args.trace:
        with open(WORKDIR / "spans.json", "w", encoding="utf-8") as handle:
            json.dump({"legs": spans}, handle)
    if args.write_expected:
        write_expected(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "smoke": args.smoke, "trace": bool(args.trace),
                       "env": environment_fingerprint(), "workloads": results},
                      handle, indent=1, sort_keys=True)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics: Dict[str, Any] = {}
    for name, result in results.items():
        for metric in wanted:
            key = metric if len(results) == 1 else "%s/%s" % (name, metric)
            if metric in result["metrics"]:
                metrics[key] = result["metrics"][metric]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def write_expected(results: Dict[str, Dict[str, Any]]) -> None:
    EXPECTED.mkdir(exist_ok=True)
    for name, result in results.items():
        if not result["correct"]:
            print("run.py: %s failed; expected outputs not written" % name, file=sys.stderr)
            continue
        for step, text in result["stdout"].items():
            expected_path(name, step).write_text(text, encoding="utf-8")
        if result["digests"]:
            cells_path(name).write_text(
                json.dumps(result["digests"], indent=1, sort_keys=True) + "\n",
                encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
