"""Audit-mode golden tests: tracing observes without perturbing, and
the lifecycle validators hold over the whole golden matrix.

Each golden cell is re-run with the full observability stack on
(event tracing + ``check_invariants``), on both cores - through
``run_traced``, which picks the soa core for every golden cell, and on
the object core built directly - and must (a) produce a trace the
:class:`~repro.obs.audit.TraceAuditor` finds zero violations in, and
(b) produce the *bit-identical* summary pinned in ``summaries.json`` -
proving the trace layer is a pure observer.

A deliberately corrupted trace must be flagged, so a green audit
means the validators actually bite.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.audit import TraceAuditor
from repro.obs.runner import run_traced
from repro.obs.trace import EventType, InMemorySink
from tests.golden.test_trace_equivalence import build, golden_machine

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


def _run_cell(cell):
    return run_traced(
        cell["algorithm"],
        cell["workload"],
        accesses_per_core=GOLDEN_SCALE,
        seed=0,
        warmup_fraction=cell["warmup_fraction"],
        check_invariants=True,
    )


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=_cell_id)
def test_traced_audited_run_is_clean_and_result_neutral(cell):
    traced = _run_cell(cell)
    assert traced.core == "soa"
    assert traced.events, "tracing produced no events"
    auditor = TraceAuditor(num_cmps=traced.meta["num_cmps"])
    violations = auditor.audit(traced.events)
    assert violations == [], "\n".join(str(v) for v in violations)
    # Tracing + invariant checking changed nothing observable.
    assert traced.summary() == cell["summary"]


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=_cell_id)
def test_object_core_traced_audited_run_is_clean(cell):
    machine, source = golden_machine(cell)
    sink = InMemorySink()
    result = build(
        "object",
        machine,
        cell["algorithm"],
        source,
        cell["warmup_fraction"],
        sink,
    ).run()
    assert sink.events, "tracing produced no events"
    violations = TraceAuditor(num_cmps=machine.num_cmps).audit(sink.events)
    assert violations == [], "\n".join(str(v) for v in violations)
    assert result.summary() == cell["summary"]


def test_auditor_flags_dropped_retirements():
    traced = run_traced(
        "lazy", "specjbb", accesses_per_core=GOLDEN_SCALE, seed=0
    )
    corrupted = [
        event
        for event in traced.events
        if event.type is not EventType.RETIRE
    ]
    violations = TraceAuditor(
        num_cmps=traced.meta["num_cmps"]
    ).audit(corrupted)
    assert violations
    assert all(v.rule == "lifecycle" for v in violations)


def test_auditor_flags_forged_prediction():
    traced = run_traced(
        "subset", "specjbb", accesses_per_core=GOLDEN_SCALE, seed=0
    )
    events = list(traced.events)
    index = next(
        i
        for i, event in enumerate(events)
        if event.type is EventType.PREDICTOR
        and not event.data["prediction"]
        and not event.data["truth"]
    )
    forged = events[index]._replace(
        data={**events[index].data, "prediction": True}
    )
    events[index] = forged
    violations = TraceAuditor(
        num_cmps=traced.meta["num_cmps"]
    ).audit(events)
    assert any(
        v.rule == "predictor" and "false positive" in v.message
        for v in violations
    )
