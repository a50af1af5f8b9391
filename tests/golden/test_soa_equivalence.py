"""Golden-equivalence tests for the struct-of-arrays core.

The SoA core (``core=soa``) replaces the object core's subsystem
seams with one fused event loop over integer-coded state; its whole
claim is that this is a *mechanical* transformation.  Two checks pin
that claim to the same golden capture the object core is checked
against:

* every golden cell, executed through the normal harness path with
  ``RunSpec(core="soa")``, produces a summary bit-identical to the
  pre-optimization golden capture and the same engine event count
  (and therefore matches the object core, which is pinned to the same
  file by ``test_golden_equivalence``);
* the fingerprints of the two cores differ, so the result cache never
  serves one core's entry for the other.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness.parallel import RunSpec, execute_spec

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "summaries.json")

#: Accesses per core the golden cells were captured at.
GOLDEN_SCALE = 200

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN_CELLS = json.load(_handle)


def _cell_id(cell) -> str:
    return "%s-%s-warmup%s" % (
        cell["algorithm"],
        cell["workload"],
        cell["warmup_fraction"],
    )


def _soa_spec(cell) -> RunSpec:
    return RunSpec(
        algorithm=cell["algorithm"],
        workload=cell["workload"],
        accesses_per_core=GOLDEN_SCALE,
        seed=0,
        warmup_fraction=cell["warmup_fraction"],
        core="soa",
    )


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=_cell_id)
def test_soa_summary_matches_golden(cell):
    result = execute_spec(_soa_spec(cell))
    assert result.summary() == cell["summary"]
    assert result.events == cell["events"]


def test_soa_fingerprint_differs_from_object():
    cell = GOLDEN_CELLS[0]
    soa = _soa_spec(cell)
    obj = RunSpec(
        algorithm=cell["algorithm"],
        workload=cell["workload"],
        accesses_per_core=GOLDEN_SCALE,
        seed=0,
        warmup_fraction=cell["warmup_fraction"],
    )
    assert soa.fingerprint(cores_per_cmp=1) != obj.fingerprint(
        cores_per_cmp=1
    )
