"""Checks of the end-to-end benchmark itself, run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q

Drives ``run.py --smoke`` (every scale shrunk, one round) over all four
workloads, traced, and checks that every metric of BENCHMARK.json is
printed with its unit, that no operation failed, and that the spans in
``spans.json`` nest.  Takes about a minute.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_run_module():
    spec = importlib.util.spec_from_file_location("e2e_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


bench = _load_run_module()


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced smoke run of all four workloads."""
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = _run("--smoke", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return {
        "stdout": proc.stdout,
        "last": json.loads(proc.stdout.strip().splitlines()[-1]),
        "results": json.loads(out.read_text(encoding="utf-8")),
        "spans": json.loads((bench.WORKDIR / "spans.json").read_text(encoding="utf-8")),
        "out": out,
    }


def test_no_operation_failed(traced):
    assert traced["last"]["correct"] is True
    assert traced["last"]["failed"] == 0
    assert traced["last"]["attempted"] >= 1
    for name, result in traced["results"]["workloads"].items():
        assert result["failed"] == 0, (name, result["legs"])


def test_every_metric_printed_with_its_unit(traced):
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    blocks = ("\n" + traced["stdout"]).split("\n== ")[1:]
    assert [block.split(":")[0] for block in blocks] == list(bench.WORKLOADS)
    for workload, block in zip(bench.WORKLOADS, blocks):
        rows = block.splitlines()
        for metric in metrics:
            line = "  %-40s " % metric["name"]
            printed = [row for row in rows if row.startswith(line)
                       and row.endswith(" " + metric["unit"])]
            assert printed, (workload, metric["name"])
    # The final line of a traced run carries exactly the per-layer set.
    for workload in bench.WORKLOADS:
        for metric in SPEC["per_layer"]:
            entry = traced["last"]["metrics"]["%s/%s" % (workload, metric["name"])]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))


def test_untraced_final_line_is_the_end_to_end_set():
    proc = _run("--workload", "trace-audit", "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {name: entry["unit"] for name, entry in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(entry["value"] > 0 for entry in last["metrics"].values())


def _expected_span_names(workload: str, cores) -> set:
    names = {"cli.main", "workloads.materialize"}
    for core in cores:
        names |= {"sim.%s.__init__" % core, "sim.%s.run" % core}
    if workload == "trace-audit":
        names |= {"obs.run_traced", "obs.write_trace", "obs.read_trace", "obs.audit"}
    else:
        names.add("parallel.execute_spec")
    if "jit" in cores:
        names.add("sim.jit.export_cache_image")
    return names


def test_every_layer_has_spans_on_every_workload(traced):
    for name, workload in bench.WORKLOADS.items():
        # A refused core's run never starts: loaded's soa legs fall
        # back to the object core.
        cores = ["object"] if name == "loaded" else list(workload.cores)
        seen = {span[0] for leg in traced["spans"]["legs"]
                if leg["workload"] == name for span in leg["spans"]}
        assert _expected_span_names(name, cores) <= seen, name


def test_spans_nest_and_self_times_add_up(traced):
    for leg in traced["spans"]["legs"]:
        spans = leg["spans"]
        roots = [i for i, span in enumerate(spans) if span[3] is None]
        assert len(roots) == 1 and spans[roots[0]][0] == "cli.main"
        for span in spans:
            assert span[1] <= span[2]
            if span[3] is not None:
                assert 0 <= span[3] < len(spans)
                parent = spans[span[3]]
                assert parent[1] <= span[1] and span[2] <= parent[2]
        root = spans[roots[0]]
        total = sum(bench.self_times(spans))
        assert abs(total - (root[2] - root[1])) <= 0.01 * (root[2] - root[1])
        assert min(bench.self_times(spans)) >= -1e-6


def test_compare_passes_against_itself(traced):
    proc = _run("--compare", str(traced["out"]), str(traced["out"]))
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.strip().endswith("compare: PASS")


def test_provenance_names_requested_and_actual_core(traced):
    for leg in traced["results"]["workloads"]["loaded"]["legs"]:
        assert leg["canonical_core"] == leg["requested_core"]
        assert leg["actual_core"] == "object"
        assert leg["numba_available"] in (True, False)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_paper_error_reads_the_fastest_implementable_algorithm():
    figure = "\n".join([
        "Figure 8: execution time (normalized to Lazy)",
        "algorithm          splash2     specjbb     specweb",
        "-" * 50,
        "lazy                 1.000       1.000       1.000",
        "oracle               0.500       0.500       0.500",
        "eager                0.860       0.870       0.950",
        "subset               0.900       0.880       0.930",
    ])
    # Speedups 14/13/7 % against the paper's 14/13/6 %: 1 pp off.
    assert bench.paper_error_pp(figure) == pytest.approx(1.0)
