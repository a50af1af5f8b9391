"""The decision seam: context-carrying snoop policies.

Interface contract
==================

Every snooping algorithm is a *decision policy*: at each unsatisfied
read hop it maps a :class:`DecisionContext` - the supplier
prediction plus the requester-side urgency signals carried by the
transaction - to one of the three Table 2 primitives.  The historical
``choose(prediction: bool)`` contract is a special case (a context
whose only populated field is the prediction) and remains accepted at
every call site via :func:`as_context`.

The seam has two halves:

* :class:`DecisionContext` - a small frozen record built inline by the
  object core's :class:`~repro.sim.walker.RingWalker` at the decision
  site.  Fields beyond the prediction: the requester's retry count for
  the current access (squash/back-off cycles survived so far), the
  MSHR-waiter depth queued behind the requester on the same line, the
  message's ring age in request hops, and the access kind.
* :class:`DecisionTable` - the *static* form of a policy: a 2x2
  primitive table (calm/critical x negative/positive prediction) plus
  the integer thresholds that select the critical row.  A policy that
  publishes a table is a pure function of the context, so the fused
  core (``core=soa``) hoists the table and thresholds into plain
  integers at construction and never calls back into Python on the
  per-hop path.  A policy whose decision depends on state
  outside the context (e.g. :class:`~repro.core.algorithms.SupersetHybrid`
  with an energy-pressure probe) publishes no table, and every core
  calls its ``choose`` per hop.

Counted outputs
===============

A table may declare one *counted output* (:attr:`DecisionTable.counts`):
the name of a decision subset the cores tally and report back through
:meth:`~repro.core.algorithms.SnoopingAlgorithm.fold_choice_counts`.
This is how ``SupersetHybrid.aggressive_choices`` and
``Criticality.critical_choices`` stay exact on the soa core without
any per-hop Python callback - the counter is part of the declared
policy, not a post-run reconstruction.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple, Union

from repro.core.primitives import Primitive

#: Threshold sentinel: a criticality condition that can never fire.
#: Large enough that no simulated retry count or waiter depth reaches it.
NEVER = 1 << 30

#: Context field names, in the canonical ``decision_inputs`` order.
CONTEXT_FIELDS: Tuple[str, ...] = (
    "prediction",
    "retries",
    "waiters",
    "ring_age",
    "kind",
)

#: ``DecisionTable.counts`` values the cores know how to tally.
COUNTED_OUTPUTS: Tuple[str, ...] = ("pred_true", "critical")


class DecisionContext(NamedTuple):
    """One read-hop decision point, as seen by the policy.

    Attributes:
        prediction: the Supplier Predictor's answer at this node
            (``True`` for predictor-less algorithms).
        retries: how many times the requester's *current access* has
            been squashed and retried so far (0 on the first attempt).
        waiters: MSHR waiters queued behind the requester on the same
            line at this instant (same-CMP cores blocked on this
            transaction).
        ring_age: request hops the message has traveled from the
            requester to this node.
        is_write: access kind (``False``: the ordinary read decision
            site; ``True`` only for policies that opt into routing
            write snoops through ``choose``).
    """

    prediction: bool
    retries: int = 0
    waiters: int = 0
    ring_age: int = 0
    is_write: bool = False


def as_context(
    value: Union[DecisionContext, bool, int]
) -> DecisionContext:
    """Coerce a legacy ``choose(prediction)`` bool (or 0/1 int) into a
    :class:`DecisionContext`; contexts pass through unchanged."""
    if isinstance(value, DecisionContext):
        return value
    return DecisionContext(prediction=bool(value))


class DecisionTable(NamedTuple):
    """A policy as static data: 2x2 primitives + integer thresholds.

    The *calm* row (``on_true`` / ``on_false``) applies while the
    requester is below every criticality threshold; the *critical* row
    (``critical_true`` / ``critical_false``) applies as soon as the
    retry count or the MSHR-waiter depth reaches its threshold.
    Policies without a criticality axis leave the thresholds at
    :data:`NEVER` (the critical row is then unreachable and kept equal
    to the calm row by convention).

    ``counts`` optionally names the counted output (see module doc):
    ``"pred_true"`` tallies positive-prediction decisions,
    ``"critical"`` tallies critical-row decisions.
    """

    on_true: Primitive
    on_false: Primitive
    critical_true: Primitive
    critical_false: Primitive
    retry_threshold: int = NEVER
    waiter_threshold: int = NEVER
    counts: Optional[str] = None

    # ------------------------------------------------------------------
    # Pure evaluation (the reference semantics the cores transliterate)

    def has_criticality(self) -> bool:
        """Whether the critical row is reachable at all."""
        return (
            self.retry_threshold < NEVER or self.waiter_threshold < NEVER
        )

    def is_critical(self, ctx: DecisionContext) -> bool:
        """The criticality predicate: either threshold reached."""
        return (
            ctx.retries >= self.retry_threshold
            or ctx.waiters >= self.waiter_threshold
        )

    def decide(self, ctx: DecisionContext) -> Primitive:
        """Evaluate the table on ``ctx`` (the object-core reference
        path; the soa core runs the same logic over hoisted ints)."""
        if self.has_criticality() and self.is_critical(ctx):
            return self.critical_true if ctx.prediction else (
                self.critical_false
            )
        return self.on_true if ctx.prediction else self.on_false

    # ------------------------------------------------------------------
    # Derived facts (registry metadata / correctness gating)

    def forwards_on_negative(self) -> bool:
        """Whether any reachable row filters (``FORWARD``) on a
        negative prediction - such a policy needs a predictor with no
        false negatives (superset/exact/perfect) or the single
        supplier could be skipped."""
        if self.on_false is Primitive.FORWARD:
            return True
        return (
            self.has_criticality()
            and self.critical_false is Primitive.FORWARD
        )

    def decision_inputs(self) -> Tuple[str, ...]:
        """Context fields this table actually reads, in
        :data:`CONTEXT_FIELDS` order."""
        inputs = ["prediction"]
        if self.retry_threshold < NEVER:
            inputs.append("retries")
        if self.waiter_threshold < NEVER:
            inputs.append("waiters")
        return tuple(inputs)

    def primitives_on(self, prediction: bool) -> Tuple[Primitive, ...]:
        """The set of primitives any reachable row may emit for
        ``prediction`` (the auditor's policy-guarantee alphabet)."""
        calm = self.on_true if prediction else self.on_false
        if not self.has_criticality():
            return (calm,)
        crit = self.critical_true if prediction else self.critical_false
        if crit is calm:
            return (calm,)
        return (calm, crit)


def uniform_table(
    on_true: Primitive,
    on_false: Primitive,
    counts: Optional[str] = None,
) -> DecisionTable:
    """A table with no criticality axis (the seven paper algorithms):
    the critical row mirrors the calm row and is unreachable."""
    return DecisionTable(
        on_true=on_true,
        on_false=on_false,
        critical_true=on_true,
        critical_false=on_false,
        counts=counts,
    )
