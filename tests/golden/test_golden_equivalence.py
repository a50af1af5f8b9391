"""Golden-equivalence tests for the object core.

``summaries.json`` pins the full ``SimulationResult.summary()`` and
the engine event count of every algorithm x workload x warmup cell,
captured on the pre-optimization engine (commit ``b43532b``, one
event per ring hop, no prewarm memo, no FORWARD fast path).  The
claim checked against it: every cell reproduces that capture exactly.
``test_summary_matches_pre_optimization_golden`` checks the summary -
exec time, crossings, energy, squashes, latencies - and
``test_unbatched_walk_replays_golden_event_for_event`` the number of
engine events, which matches because every ring hop is still one
engine event.  A change to results and a change to how the walk is
driven thus fail different tests.

Regenerating ``summaries.json`` after an intentional semantic change:
run every cell below at ``GOLDEN_SCALE`` and dump
``{algorithm, workload, warmup_fraction, summary, events}`` per cell.
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


def _golden_spec(cell) -> RunSpec:
    return RunSpec(
        algorithm=cell["algorithm"],
        workload=cell["workload"],
        accesses_per_core=GOLDEN_SCALE,
        seed=0,
        warmup_fraction=cell["warmup_fraction"],
    )


def test_golden_matrix_covers_acceptance_surface():
    """The golden file must span all seven algorithms on >=2 workloads
    (the equivalence claim is only as strong as its coverage)."""
    algorithms = {cell["algorithm"] for cell in GOLDEN_CELLS}
    workloads = {cell["workload"] for cell in GOLDEN_CELLS}
    assert algorithms == {
        "lazy",
        "eager",
        "oracle",
        "subset",
        "superset_con",
        "superset_agg",
        "exact",
    }
    assert len(workloads) >= 2


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=_cell_id)
def test_summary_matches_pre_optimization_golden(cell):
    result = execute_spec(_golden_spec(cell))
    assert result.summary() == cell["summary"]


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=_cell_id)
def test_unbatched_walk_replays_golden_event_for_event(cell):
    result = execute_spec(_golden_spec(cell))
    assert result.events == cell["events"]
    # No event is dropped: the run fired every event it scheduled.
    assert result.stats.events_scheduled == result.events
