"""28-cell equivalence of the legacy algorithms under the decision seam.

The DecisionPolicy refactor replaced the per-hop ``choose(prediction)``
callback with hoisted decision tables in the soa core.  This matrix
pins the refactor's central claim cell by cell: all seven paper
algorithms, at both warmup settings, produce summaries bit-identical
to the object core running the identical scenario.

The two post-paper policies ride the same seam and get the stronger
check: their declared counted outputs (``aggressive_choices`` /
``critical_choices``) must match the object core's Python-side tallies
exactly on the soa core.

A table-less policy gets the full decision context on both cores,
whatever its ``decision_inputs()`` names: a test-local policy that
reads the ring age under the default inputs must run identically.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.config import default_machine
from repro.core.algorithms import SnoopingAlgorithm, build_algorithm
from repro.core.decision import as_context
from repro.core.primitives import Primitive
from repro.sim.soa import SoaRingMultiprocessor
from repro.sim.system import RingMultiprocessor
from repro.workloads.source import SyntheticSource, resolve_source
from repro.workloads.synthetic import SharingProfile

LEGACY_ALGORITHMS = (
    "lazy",
    "eager",
    "oracle",
    "subset",
    "superset_con",
    "superset_agg",
    "exact",
)

ARRAY_CORES = {"soa": SoaRingMultiprocessor}

WARMUPS = (0.0, 0.3)

PROFILE = SharingProfile(
    name="seam",
    num_cores=8,
    cores_per_cmp=2,
    accesses_per_core=120,
    seed=7,
)


def _machine(algorithm: str):
    return default_machine(
        algorithm=algorithm, cores_per_cmp=2, num_cmps=4
    )


def _run(core_cls, algorithm_name: str, warmup: float):
    algorithm = build_algorithm(algorithm_name)
    result = core_cls(
        _machine(algorithm_name),
        algorithm,
        SyntheticSource(PROFILE),
        warmup_fraction=warmup,
    ).run()
    return result, algorithm


#: Object-core baselines, computed once per (algorithm, warmup).
_BASELINES: Dict[Tuple[str, float], dict] = {}


def _baseline_summary(algorithm_name: str, warmup: float) -> dict:
    key = (algorithm_name, warmup)
    if key not in _BASELINES:
        result, _ = _run(RingMultiprocessor, algorithm_name, warmup)
        _BASELINES[key] = result.summary()
    return _BASELINES[key]


@pytest.mark.parametrize("warmup", WARMUPS)
@pytest.mark.parametrize("core", sorted(ARRAY_CORES))
@pytest.mark.parametrize("algorithm", LEGACY_ALGORITHMS)
def test_legacy_cell_bit_identical(algorithm, core, warmup):
    result, _ = _run(ARRAY_CORES[core], algorithm, warmup)
    assert result.summary() == _baseline_summary(algorithm, warmup)


@pytest.mark.parametrize("core", sorted(ARRAY_CORES))
def test_criticality_summary_and_counter_match_object(core):
    object_result, object_algorithm = _run(
        RingMultiprocessor, "criticality", 0.3
    )
    array_result, array_algorithm = _run(
        ARRAY_CORES[core], "criticality", 0.3
    )
    assert array_result.summary() == object_result.summary()
    assert (
        array_algorithm.critical_choices
        == object_algorithm.critical_choices
    )


@pytest.mark.parametrize("core", sorted(ARRAY_CORES))
def test_hybrid_summary_and_counter_match_object(core):
    object_result, object_algorithm = _run(
        RingMultiprocessor, "superset_hybrid", 0.3
    )
    array_result, array_algorithm = _run(
        ARRAY_CORES[core], "superset_hybrid", 0.3
    )
    assert array_result.summary() == object_result.summary()
    assert (
        array_algorithm.aggressive_choices
        == object_algorithm.aggressive_choices
    )
    assert object_algorithm.aggressive_choices > 0


@pytest.mark.parametrize("core", sorted(ARRAY_CORES))
def test_dynamic_hybrid_matches_object(core):
    """A pressure probe retracts the hybrid's table, so every core calls
    ``choose`` per hop; the probe sees the same call sequence on each."""

    def run(core_cls):
        algorithm = build_algorithm("superset_hybrid")
        calls = [0]

        def pressure() -> bool:
            calls[0] += 1
            return calls[0] % 3 == 0

        algorithm.set_energy_pressure(pressure)
        assert algorithm.decision_table() is None
        result = core_cls(
            _machine("superset_hybrid"),
            algorithm,
            SyntheticSource(PROFILE),
            warmup_fraction=0.3,
        ).run()
        return result.summary(), algorithm.aggressive_choices, calls[0]

    object_run = run(RingMultiprocessor)
    assert run(ARRAY_CORES[core]) == object_run
    assert object_run[2] > object_run[1] > 0


class AgeUndeclared(SnoopingAlgorithm):
    """Filter negative predictions; on a positive one, forward-then-
    snoop in the first half of the walk and snoop-then-forward after.

    It reads the ring age but publishes no table and keeps the default
    ``decision_inputs()``, which does not name ``ring_age``.
    """

    name = "age_undeclared"
    display_name = "AgeUndeclared"
    default_predictor_kind = "superset"

    def decision_table(self):
        return None

    def choose(self, ctx) -> Primitive:
        context = as_context(ctx)
        if not context.prediction:
            return Primitive.FORWARD
        if context.ring_age <= 4:
            return Primitive.FORWARD_THEN_SNOOP
        return Primitive.SNOOP_THEN_FORWARD


@pytest.mark.parametrize("core", sorted(ARRAY_CORES))
def test_tableless_policy_sees_ring_age_on_every_core(core):
    assert "ring_age" not in AgeUndeclared().decision_inputs()

    def run(core_cls):
        source = resolve_source("splash2", 60, 0, num_cmps=8)
        machine = default_machine(
            predictor="Supy2k",
            num_cmps=source.num_cmps,
            cores_per_cmp=source.cores_per_cmp,
        )
        return core_cls(machine, AgeUndeclared(), source).run().summary()

    assert run(ARRAY_CORES[core]) == run(RingMultiprocessor)
