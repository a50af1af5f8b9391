"""The decision seam's data model and its CLI/registry surface.

Pins the :mod:`repro.core.decision` contract pointwise (the property
suite in ``tests/property/test_decision_policy_properties.py`` attacks
the same contract with random contexts): table evaluation, threshold
semantics, derived metadata, the ``uses_predictor`` resolution fix,
and the CLI's algorithm-list parsing.
"""

from __future__ import annotations

import pytest

from repro.config import default_machine
from repro.core.algorithms import Criticality, SupersetHybrid, build_algorithm
from repro.core.decision import (
    COUNTED_OUTPUTS,
    NEVER,
    DecisionContext,
    DecisionTable,
    as_context,
    uniform_table,
)
from repro.core.primitives import Primitive
from repro.harness.cli import (
    _all_algorithm_names,
    _parse_algorithm_list,
    build_parser,
)
from repro.registry import REGISTRY
from repro.sim.system import RingMultiprocessor
from repro.workloads.source import SyntheticSource
from repro.workloads.synthetic import SharingProfile

FWD = Primitive.FORWARD
FTS = Primitive.FORWARD_THEN_SNOOP
STF = Primitive.SNOOP_THEN_FORWARD


# ----------------------------------------------------------------------
# DecisionContext / as_context


def test_as_context_coerces_legacy_bools():
    assert as_context(True) == DecisionContext(prediction=True)
    assert as_context(False) == DecisionContext(prediction=False)
    assert as_context(1).prediction is True
    ctx = DecisionContext(True, retries=3, waiters=2, ring_age=5)
    assert as_context(ctx) is ctx


def test_context_defaults_are_calm():
    ctx = DecisionContext(True)
    assert ctx.retries == 0
    assert ctx.waiters == 0
    assert ctx.ring_age == 0
    assert ctx.is_write is False


# ----------------------------------------------------------------------
# DecisionTable semantics


def test_uniform_table_has_no_criticality_axis():
    table = uniform_table(STF, FWD)
    assert not table.has_criticality()
    assert table.retry_threshold == NEVER
    assert table.waiter_threshold == NEVER
    # Critical row mirrors the calm row and stays unreachable: even an
    # absurdly urgent context evaluates on the calm row.
    urgent = DecisionContext(True, retries=10**6, waiters=10**6)
    assert table.decide(urgent) is STF
    assert table.primitives_on(True) == (STF,)
    assert table.primitives_on(False) == (FWD,)
    assert table.decision_inputs() == ("prediction",)


def test_criticality_table_switches_rows_on_either_threshold():
    table = DecisionTable(
        on_true=STF,
        on_false=FWD,
        critical_true=FTS,
        critical_false=FWD,
        retry_threshold=2,
        waiter_threshold=3,
    )
    assert table.has_criticality()
    assert table.decide(DecisionContext(True)) is STF
    assert table.decide(DecisionContext(True, retries=1)) is STF
    assert table.decide(DecisionContext(True, retries=2)) is FTS
    assert table.decide(DecisionContext(True, waiters=2)) is STF
    assert table.decide(DecisionContext(True, waiters=3)) is FTS
    # Negative predictions filter in both rows.
    assert table.decide(DecisionContext(False, retries=9)) is FWD
    assert table.primitives_on(True) == (STF, FTS)
    assert table.primitives_on(False) == (FWD,)
    assert table.decision_inputs() == ("prediction", "retries", "waiters")


def test_forwards_on_negative_consults_every_reachable_row():
    assert uniform_table(STF, FWD).forwards_on_negative()
    assert not uniform_table(STF, STF).forwards_on_negative()
    # Filtering only in the (reachable) critical row still demands a
    # no-false-negative predictor.
    critical_filter = DecisionTable(
        on_true=STF,
        on_false=STF,
        critical_true=FTS,
        critical_false=FWD,
        retry_threshold=1,
    )
    assert critical_filter.forwards_on_negative()


def test_registered_counted_outputs_are_known():
    for name in REGISTRY.names("algorithm"):
        algorithm = build_algorithm(name)
        table = algorithm.decision_table()
        if table is not None and table.counts is not None:
            assert table.counts in COUNTED_OUTPUTS


# ----------------------------------------------------------------------
# Algorithm-level seam behaviour


def test_criticality_rejects_degenerate_thresholds():
    with pytest.raises(ValueError):
        Criticality(retry_threshold=0)
    with pytest.raises(ValueError):
        Criticality(waiter_threshold=-1)


def test_criticality_choose_counts_critical_rows():
    algorithm = Criticality()
    assert algorithm.choose(DecisionContext(True)) is STF
    assert algorithm.critical_choices == 0
    assert algorithm.choose(DecisionContext(True, retries=1)) is FTS
    assert algorithm.choose(DecisionContext(False, waiters=4)) is FWD
    assert algorithm.critical_choices == 2
    algorithm.fold_choice_counts(3)
    assert algorithm.critical_choices == 5


def test_hybrid_table_retracts_under_pressure():
    algorithm = SupersetHybrid()
    assert algorithm.decision_table() is not None
    assert algorithm.decision_inputs() == ("prediction",)
    algorithm.set_energy_pressure(lambda: True)
    assert algorithm.decision_table() is None
    assert "energy_pressure" in algorithm.decision_inputs()
    assert algorithm.choose(DecisionContext(True)) is STF
    assert algorithm.conservative_choices == 1


def test_legacy_bool_choose_still_accepted():
    for name in REGISTRY.names("algorithm"):
        algorithm = build_algorithm(name)
        for prediction in (False, True):
            assert algorithm.choose(prediction) is algorithm.choose(
                DecisionContext(prediction)
            )


# ----------------------------------------------------------------------
# uses_predictor: resolved instance kind, not the class default


def test_uses_predictor_falls_back_to_class_default():
    assert not build_algorithm("lazy").uses_predictor()
    assert not build_algorithm("eager").uses_predictor()
    assert build_algorithm("subset").uses_predictor()
    assert build_algorithm("criticality").uses_predictor()


def test_uses_predictor_consults_bound_kind():
    algorithm = build_algorithm("subset")
    algorithm.bind_predictor_kind("none")
    assert not algorithm.uses_predictor()
    lazy = build_algorithm("lazy")
    lazy.bind_predictor_kind("subset")
    assert lazy.uses_predictor()


def test_system_binds_configured_predictor_kind():
    profile = SharingProfile(
        name="bind", num_cores=2, cores_per_cmp=1,
        accesses_per_core=10, seed=1,
    )
    machine = default_machine(
        algorithm="subset", cores_per_cmp=1, num_cmps=2
    )
    algorithm = build_algorithm("subset")
    RingMultiprocessor(machine, algorithm, SyntheticSource(profile))
    assert algorithm._predictor_kind == machine.predictor.kind
    assert algorithm.uses_predictor() == (machine.predictor.kind != "none")


# ----------------------------------------------------------------------
# CLI surface


def test_parse_algorithm_list_expands_all():
    expanded = _parse_algorithm_list("all")
    assert expanded == _all_algorithm_names()
    assert set(expanded) == set(REGISTRY.names("algorithm"))
    # Paper order leads; the post-paper additions follow.
    assert expanded[:7] == [
        "lazy", "eager", "oracle", "subset",
        "superset_con", "superset_agg", "exact",
    ]
    assert "criticality" in expanded


def test_parse_algorithm_list_accepts_comma_lists():
    assert _parse_algorithm_list("lazy, eager ,lazy") == ["lazy", "eager"]
    assert _parse_algorithm_list("") == []
    merged = _parse_algorithm_list("criticality,all")
    assert merged[0] == "criticality"
    assert set(merged) == set(_all_algorithm_names())


def test_figure_parser_accepts_criticality_options():
    parser = build_parser()
    args = parser.parse_args(
        ["figure", "criticality", "--think-scale", "0.5", "--jobs", "1"]
    )
    assert args.number == "criticality"
    assert args.think_scale == 0.5
    args = parser.parse_args(["figure", "saturation", "--algorithms", "all"])
    assert _parse_algorithm_list(args.algorithms) == _all_algorithm_names()
