"""Property-based contract of the decision seam.

Every registered policy must be a *pure function* of its
:class:`~repro.core.decision.DecisionContext`: the same context always
yields the same primitive, the published
:class:`~repro.core.decision.DecisionTable` (when any) agrees with
``choose`` everywhere, and context fields outside the policy's declared
``decision_inputs`` never influence the decision.  This is the property
the soa core relies on when it hoists the table into integers and
never calls back into Python per hop.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import build_algorithm
from repro.core.decision import CONTEXT_FIELDS, DecisionContext
from repro.core.primitives import Primitive
from repro.registry import REGISTRY

ALGORITHM_NAMES = tuple(sorted(REGISTRY.names("algorithm")))

contexts = st.builds(
    DecisionContext,
    prediction=st.booleans(),
    retries=st.integers(0, 6),
    waiters=st.integers(0, 6),
    ring_age=st.integers(0, 15),
    is_write=st.just(False),
)


@st.composite
def policy_points(draw):
    return draw(st.sampled_from(ALGORITHM_NAMES)), draw(contexts)


@given(policy_points())
@settings(max_examples=200, deadline=None)
def test_choose_is_deterministic_in_the_context(point):
    name, ctx = point
    algorithm = build_algorithm(name)
    first = algorithm.choose(ctx)
    assert isinstance(first, Primitive)
    # Counting side effects (hybrid/criticality tallies) are allowed;
    # the *decision* must not drift between identical contexts.
    assert algorithm.choose(ctx) is first
    assert build_algorithm(name).choose(ctx) is first


@given(policy_points())
@settings(max_examples=200, deadline=None)
def test_published_table_agrees_with_choose(point):
    name, ctx = point
    algorithm = build_algorithm(name)
    table = algorithm.decision_table()
    assert table is not None, (
        "every registered builtin publishes a static table"
    )
    assert algorithm.choose(ctx) is table.decide(ctx)


@given(policy_points(), st.data())
@settings(max_examples=200, deadline=None)
def test_undeclared_inputs_never_change_the_decision(point, data):
    name, ctx = point
    algorithm = build_algorithm(name)
    inputs = algorithm.decision_inputs()
    assert set(inputs) <= set(CONTEXT_FIELDS)
    baseline = algorithm.choose(ctx)
    mutated = ctx
    if "retries" not in inputs:
        mutated = mutated._replace(retries=data.draw(st.integers(0, 50)))
    if "waiters" not in inputs:
        mutated = mutated._replace(waiters=data.draw(st.integers(0, 50)))
    if "ring_age" not in inputs:
        mutated = mutated._replace(ring_age=data.draw(st.integers(0, 50)))
    assert algorithm.choose(mutated) is baseline


@given(st.sampled_from(ALGORITHM_NAMES), contexts)
@settings(max_examples=120, deadline=None)
def test_forwards_on_negative_matches_observed_decisions(name, ctx):
    algorithm = build_algorithm(name)
    decision = algorithm.choose(ctx._replace(prediction=False))
    if decision is Primitive.FORWARD:
        assert algorithm.forwards_on_negative()
    if not algorithm.forwards_on_negative():
        assert decision is not Primitive.FORWARD
