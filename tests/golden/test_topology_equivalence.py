"""Topology-seam golden tests.

The topology refactor's bit-identity claim, checked against the same
``summaries.json`` capture the other golden suites use: selecting
``topology=ring`` *explicitly* (instead of leaving the config default)
must reproduce every golden cell byte-for-byte on both simulation
cores, and must produce the same result-cache key as the default
spelling (the two resolve to equal machines).

Plus the hierarchical acceptance surface: all seven algorithms run on
the 16-CMP two-level ``hier_ring`` machine with tracing on and the
per-segment trace auditor reports zero violations, and a 16-CMP trace
file replays through the default machine (the torus auto-derive fix).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness.parallel import RunSpec, execute_spec

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "summaries.json")
GOLDEN_SCALE = 200

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN_CELLS = json.load(_handle)


def _cell_id(cell) -> str:
    return "%s-%s-warmup%s" % (
        cell["algorithm"],
        cell["workload"],
        cell["warmup_fraction"],
    )


def _spec(cell, core="object", topology=None) -> RunSpec:
    return RunSpec(
        algorithm=cell["algorithm"],
        workload=cell["workload"],
        accesses_per_core=GOLDEN_SCALE,
        seed=0,
        warmup_fraction=cell["warmup_fraction"],
        core=core,
        topology=topology,
    )


@pytest.mark.parametrize("core", ["object", "soa"])
@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=_cell_id)
def test_explicit_ring_topology_matches_golden(cell, core):
    result = execute_spec(_spec(cell, core=core, topology="ring"))
    assert result.core == core
    assert result.summary() == cell["summary"]


@pytest.mark.parametrize("cell", GOLDEN_CELLS[:3], ids=_cell_id)
def test_explicit_ring_shares_default_cache_key(cell):
    """topology="ring" and the unset default must hit the same cache
    entry - both resolve to the default TopologyConfig, which the
    fingerprint spells out."""
    assert (
        _spec(cell, topology="ring").cache_key()
        == _spec(cell).cache_key()
    )
    fingerprint = _spec(cell).fingerprint(1)
    assert fingerprint["machine"]["topology"]["kind"] == "ring"


# ----------------------------------------------------------------------
# hier_ring acceptance surface


ALL_ALGORITHMS = (
    "lazy",
    "eager",
    "oracle",
    "subset",
    "superset_con",
    "superset_agg",
    "exact",
)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_hier_ring_16cmp_traced_run_audits_clean(algorithm):
    from repro.obs.audit import TraceAuditor
    from repro.obs.runner import run_traced

    traced = run_traced(
        algorithm,
        "specjbb",
        accesses_per_core=80,
        topology="hier_ring",
        num_cmps=16,
        check_invariants=True,
    )
    assert traced.meta["num_cmps"] == 16
    assert traced.meta["topology"] == "hier_ring"
    assert len(traced.meta["successors"]) == 16
    auditor = TraceAuditor(
        num_cmps=16, successors=traced.meta["successors"]
    )
    violations = auditor.audit(traced.events)
    assert violations == []


def test_hier_ring_differs_from_ring():
    """The hierarchy must actually change timing (global hops cost
    extra), otherwise the new topology is a no-op."""
    ring = execute_spec(
        RunSpec("eager", "specjbb", accesses_per_core=100,
                topology="ring", num_cmps=16, core="object")
    )
    hier = execute_spec(
        RunSpec("eager", "specjbb", accesses_per_core=100,
                topology="hier_ring", num_cmps=16, core="object")
    )
    assert ring.core == hier.core == "object"
    assert ring.exec_time != hier.exec_time
    # Same coherence behaviour, different interconnect timing.
    assert (
        ring.stats.read_ring_transactions
        == hier.stats.read_ring_transactions
    )


def test_16cmp_trace_replays_through_default_machine(tmp_path):
    """Satellite: a 16-CMP trace file must shape the default machine
    without tripping the old fixed 4x2-torus validation error."""
    from repro.workloads.io import save_trace
    from repro.workloads.profiles import reshape_profile, resolve_profile
    from repro.workloads.synthetic import generate_workload

    profile = reshape_profile(
        resolve_profile("specjbb", accesses_per_core=50), 16
    )
    trace = generate_workload(profile)
    assert trace.num_cores // trace.cores_per_cmp == 16
    path = tmp_path / "jbb16.jsonl"
    save_trace(trace, str(path))

    result = execute_spec(
        RunSpec("lazy", "file:%s" % path, warmup_fraction=0.0,
                core="object")
    )
    assert result.core == "object"
    assert result.exec_time > 0
    assert result.stats.reads > 0
