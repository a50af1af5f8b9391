"""The Flexible Snooping algorithms (Table 3), the baselines, and the
criticality extension.

An algorithm is a small *decision policy* object: at each unsatisfied
read hop it receives a :class:`~repro.core.decision.DecisionContext`
(the Supplier Predictor's prediction plus the requester's urgency
signals) and selects one of the three primitives.  The paper's seven
algorithms read only the prediction; :class:`Criticality` - an eighth
algorithm beyond the paper - also reads the requester's retry count
and MSHR-waiter depth.  Every built-in publishes its policy as a
static :class:`~repro.core.decision.DecisionTable`, which is what the
fused simulation cores hoist into plain integers; ``choose`` accepts a
bare bool for backward compatibility (coerced to a prediction-only
context).

Write snoop requests cannot use supplier predictors (writes must
invalidate *all* copies, not find the single supplier - Section 5.3).
Algorithms that decouple read messages into request + reply (Eager,
Subset, Superset Agg, and Oracle by the paper's convention) also
decouple write snoops, enabling parallel invalidation; the others
(Lazy, Superset Con, Exact) keep write snoops coupled and serial.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Type, Union

from repro.config import PredictorConfig
from repro.core.decision import (
    DecisionContext,
    DecisionTable,
    as_context,
    uniform_table,
)
from repro.core.primitives import Primitive
from repro.registry import REGISTRY


class SnoopingAlgorithm:
    """Base class for ring snooping algorithms (decision policies).

    Attributes:
        name: canonical lower-case name used in configs and results.
        display_name: name used in tables/figures (paper style).
        default_predictor_kind: predictor family the algorithm expects.
        decouple_writes: whether write snoops split into request +
            reply for parallel invalidation (Section 5.3).
        table: the static :class:`DecisionTable` form of the policy,
            or ``None`` for a policy whose decision depends on state
            outside the context (object core only).
    """

    name = "abstract"
    display_name = "Abstract"
    default_predictor_kind = "none"
    decouple_writes = False
    table: Optional[DecisionTable] = None
    #: Resolved predictor kind, bound by the simulation cores from the
    #: machine config (``bind_predictor_kind``); ``None`` until bound,
    #: in which case ``default_predictor_kind`` is assumed.
    _predictor_kind: Optional[str] = None

    def decision_table(self) -> Optional[DecisionTable]:
        """The policy's static table, or ``None`` if the decision is
        dynamic (then only the object core can run it)."""
        return self.table

    def choose(
        self, ctx: Union[DecisionContext, bool]
    ) -> Primitive:
        """Select the primitive for a read snoop.

        ``ctx`` is a :class:`DecisionContext`; a bare bool prediction
        (the pre-seam contract) is accepted and coerced.
        """
        table = self.decision_table()
        if table is None:
            raise NotImplementedError(
                "algorithm %r publishes no decision table and does not "
                "override choose()" % self.name
            )
        return table.decide(as_context(ctx))

    def decision_inputs(self) -> Tuple[str, ...]:
        """Context fields (plus any out-of-context state) the policy
        reads.  The object core's walker passes a policy with a table
        a prediction-only context unless the table reads an urgency
        field; a table-less policy gets the full context on every
        core, whatever it names here."""
        table = self.decision_table()
        if table is None:
            return ("prediction", "dynamic")
        return table.decision_inputs()

    def forwards_on_negative(self) -> bool:
        """Whether the policy may filter (``FORWARD``) on a negative
        prediction; dynamic policies conservatively answer True."""
        table = self.decision_table()
        if table is None:
            return True
        return table.forwards_on_negative()

    def fold_choice_counts(self, count: int) -> None:
        """Absorb the counted-output tally of an array-core run (see
        :attr:`DecisionTable.counts`); the base policy counts nothing."""

    def bind_predictor_kind(self, kind: str) -> None:
        """Record the machine's *resolved* predictor kind (called by
        the simulation cores at construction), so predictor overrides
        charge lookup latency/energy correctly."""
        self._predictor_kind = kind

    def uses_predictor(self) -> bool:
        """Whether the algorithm consults a Supplier Predictor at all.

        Determines if predictor access latency and energy are charged
        on each ring message arrival.  Consults the *instance's*
        resolved predictor kind when one was bound, falling back to
        the class default otherwise.
        """
        kind = self._predictor_kind
        if kind is None:
            kind = self.default_predictor_kind
        return kind not in ("none",)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<%s>" % type(self).__name__


class Lazy(SnoopingAlgorithm):
    """Snoop at every node before forwarding (Section 3.1).

    One combined message all the way around; long latency, medium
    snoop count, minimal traffic.
    """

    name = "lazy"
    display_name = "Lazy"
    table = uniform_table(
        Primitive.SNOOP_THEN_FORWARD, Primitive.SNOOP_THEN_FORWARD
    )


class Eager(SnoopingAlgorithm):
    """Forward immediately, then snoop, at every node (Barroso &
    Dubois' slotted-ring algorithm adapted to the embedded ring).

    Low latency, but snoops all N-1 nodes and nearly doubles traffic.
    """

    name = "eager"
    display_name = "Eager"
    decouple_writes = True
    table = uniform_table(
        Primitive.FORWARD_THEN_SNOOP, Primitive.FORWARD_THEN_SNOOP
    )


class Oracle(SnoopingAlgorithm):
    """Magic lower bound: snoop only at the supplier node."""

    name = "oracle"
    display_name = "Oracle"
    default_predictor_kind = "perfect"
    decouple_writes = True
    table = uniform_table(
        Primitive.SNOOP_THEN_FORWARD, Primitive.FORWARD
    )


class Subset(SnoopingAlgorithm):
    """Subset predictor (no false positives, false negatives possible).

    Positive prediction - the supplier is guaranteed local: Snoop Then
    Forward.  Negative prediction - the supplier may still be local:
    Forward Then Snoop (cannot skip the snoop).
    """

    name = "subset"
    display_name = "Subset"
    default_predictor_kind = "subset"
    decouple_writes = True
    table = uniform_table(
        Primitive.SNOOP_THEN_FORWARD, Primitive.FORWARD_THEN_SNOOP
    )


class SupersetCon(SnoopingAlgorithm):
    """Superset predictor, conservative flavour.

    Negative prediction is trustworthy (no false negatives): Forward.
    Positive prediction assumes the supplier is local: Snoop Then
    Forward - false positives put snoops on the critical path, but the
    message count stays at one.
    """

    name = "superset_con"
    display_name = "SupersetCon"
    default_predictor_kind = "superset"
    table = uniform_table(
        Primitive.SNOOP_THEN_FORWARD, Primitive.FORWARD
    )


class SupersetAgg(SnoopingAlgorithm):
    """Superset predictor, aggressive flavour.

    Negative prediction: Forward.  Positive prediction: Forward Then
    Snoop - the request is never delayed, at the cost of extra
    messages and predictor checks at all nodes.
    """

    name = "superset_agg"
    display_name = "SupersetAgg"
    default_predictor_kind = "superset"
    decouple_writes = True
    table = uniform_table(
        Primitive.FORWARD_THEN_SNOOP, Primitive.FORWARD
    )


class Exact(SnoopingAlgorithm):
    """Exact predictor (downgrades on conflict evictions).

    Perfect prediction: Snoop Then Forward on positive, Forward on
    negative.  The hidden cost is the downgrade traffic (write-backs
    and memory re-reads) charged by the system.
    """

    name = "exact"
    display_name = "Exact"
    default_predictor_kind = "exact"
    table = uniform_table(
        Primitive.SNOOP_THEN_FORWARD, Primitive.FORWARD
    )


class SupersetHybrid(SnoopingAlgorithm):
    """The adaptive Con/Agg switch the paper envisions (Section 6.1.5).

    Both Superset flavours share one predictor; only the action on a
    positive prediction differs.  The hybrid normally behaves like
    Superset Agg (performance), and falls back to Superset Con when
    the machine signals energy pressure.

    ``energy_pressure`` is a callable polled on each positive
    prediction; when it returns True the conservative action is used.
    Without a pressure source the policy is the static aggressive
    table (with ``aggressive_choices`` as its declared counted
    output), which the soa core hoists; binding a pressure probe makes
    the decision dynamic, so every core calls ``choose`` per hop.
    """

    name = "superset_hybrid"
    display_name = "SupersetHybrid"
    default_predictor_kind = "superset"
    # Write decoupling follows the currently dominant mode; we keep the
    # aggressive convention, matching its common case.
    decouple_writes = True
    table = uniform_table(
        Primitive.FORWARD_THEN_SNOOP,
        Primitive.FORWARD,
        counts="pred_true",
    )

    def __init__(
        self, energy_pressure: Optional[Callable[[], bool]] = None
    ) -> None:
        self._energy_pressure = energy_pressure
        self.aggressive_choices = 0
        self.conservative_choices = 0

    def set_energy_pressure(self, probe: Callable[[], bool]) -> None:
        self._energy_pressure = probe

    def decision_table(self) -> Optional[DecisionTable]:
        if self._energy_pressure is not None:
            return None
        return self.table

    def decision_inputs(self) -> Tuple[str, ...]:
        if self._energy_pressure is not None:
            return ("prediction", "energy_pressure")
        return self.table.decision_inputs()  # type: ignore[union-attr]

    def fold_choice_counts(self, count: int) -> None:
        self.aggressive_choices += count

    def choose(
        self, ctx: Union[DecisionContext, bool]
    ) -> Primitive:
        if not as_context(ctx).prediction:
            return Primitive.FORWARD
        pressed = self._energy_pressure() if self._energy_pressure else False
        if pressed:
            self.conservative_choices += 1
            return Primitive.SNOOP_THEN_FORWARD
        self.aggressive_choices += 1
        return Primitive.FORWARD_THEN_SNOOP


class Criticality(SnoopingAlgorithm):
    """Criticality-aware snooping: an eighth algorithm beyond the
    paper's seven ("Criticality Aware Multiprocessors" applied to the
    embedded ring).

    The requester's urgency - carried in the decision context as its
    retry count and the MSHR-waiter depth queued behind it - selects
    the flavour per message: a *critical* requester (either count at
    or above its threshold) gets the aggressive Forward-Then-Snoop on
    a positive prediction, so its request is never delayed by snoops;
    a calm requester gets the conservative Snoop-Then-Forward, keeping
    ring traffic at one message.  The supplier predictor is the
    tiebreak in both rows: a trustworthy negative filters the snoop
    entirely, so the predictor must have no false negatives
    (superset/exact/perfect, like the Superset family).

    Under the unloaded regime retries and waiter queues are rare and
    the policy degenerates to Superset Con; under load it spends extra
    snoop bandwidth exactly where stalls pile up.
    ``critical_choices`` counts critical-row decisions (a declared
    counted output, exact on both cores).
    """

    name = "criticality"
    display_name = "Criticality"
    default_predictor_kind = "superset"
    decouple_writes = True

    #: Default urgency thresholds: any survived squash/retry, or any
    #: same-CMP core already queued behind the request, marks the
    #: requester critical.
    DEFAULT_RETRY_THRESHOLD = 1
    DEFAULT_WAITER_THRESHOLD = 1

    def __init__(
        self,
        retry_threshold: int = DEFAULT_RETRY_THRESHOLD,
        waiter_threshold: int = DEFAULT_WAITER_THRESHOLD,
    ) -> None:
        if retry_threshold < 1 or waiter_threshold < 1:
            raise ValueError("criticality thresholds must be >= 1")
        self.table = DecisionTable(
            on_true=Primitive.SNOOP_THEN_FORWARD,
            on_false=Primitive.FORWARD,
            critical_true=Primitive.FORWARD_THEN_SNOOP,
            critical_false=Primitive.FORWARD,
            retry_threshold=retry_threshold,
            waiter_threshold=waiter_threshold,
            counts="critical",
        )
        self.critical_choices = 0

    def fold_choice_counts(self, count: int) -> None:
        self.critical_choices += count

    def choose(
        self, ctx: Union[DecisionContext, bool]
    ) -> Primitive:
        context = as_context(ctx)
        table = self.table
        assert table is not None
        if table.is_critical(context):
            self.critical_choices += 1
            return (
                table.critical_true
                if context.prediction
                else table.critical_false
            )
        return table.on_true if context.prediction else table.on_false


#: All algorithms by canonical name (kept for direct class access;
#: name resolution goes through :data:`repro.registry.REGISTRY`).
ALGORITHMS: Dict[str, Type[SnoopingAlgorithm]] = {
    cls.name: cls
    for cls in (
        Lazy,
        Eager,
        Oracle,
        Subset,
        SupersetCon,
        SupersetAgg,
        SupersetHybrid,
        Exact,
        Criticality,
    )
}

#: The paper's per-algorithm default predictor (Section 6.1's main
#: comparison), recorded as registry metadata below.  Criticality
#: filters on trusted negatives, so it takes the Superset family's
#: predictor.
_DEFAULT_PREDICTORS: Dict[str, str] = {
    "lazy": "None",
    "eager": "None",
    "oracle": "Perfect",
    "subset": "Sub2k",
    "superset_con": "Supy2k",
    "superset_agg": "Supy2k",
    "superset_hybrid": "Supy2k",
    "exact": "Exa2k",
    "criticality": "Supy2k",
}

_ALGORITHM_ALIASES: Dict[str, Tuple[str, ...]] = {
    "superset_con": ("supersetcon", "supcon"),
    "superset_agg": ("supersetagg", "supagg"),
    "superset_hybrid": ("supersethybrid",),
    "criticality": ("crit", "critical"),
}


def build_algorithm(name: str) -> SnoopingAlgorithm:
    """Instantiate an algorithm by canonical (or alias) name.

    Resolution goes through the component registry, so unknown names
    raise :class:`repro.registry.UnknownComponentError` (a
    ``ValueError`` listing the valid choices).
    """
    return REGISTRY.create("algorithm", name)


def compatible_predictor(
    algorithm: SnoopingAlgorithm, predictor_config: PredictorConfig
) -> bool:
    """Whether ``predictor_config`` provides the guarantees the
    algorithm relies on for correctness.

    An algorithm whose decision table may issue ``Forward`` on a
    negative prediction (Oracle, Superset Con/Agg/Hybrid, Exact,
    Criticality) must never see a false negative, or the single
    supplier would be skipped and the request wrongly serviced by
    memory.  Dynamic policies (no table) conservatively require the
    same guarantee.
    """
    if not algorithm.forwards_on_negative():
        return True
    return predictor_config.kind in ("superset", "exact", "perfect")


#: Predictor kinds safe for an algorithm that forwards on a negative
#: prediction: no false negatives allowed (see compatible_predictor).
_NO_FALSE_NEGATIVE_KINDS: Tuple[str, ...] = ("superset", "exact", "perfect")
_ANY_KIND: Tuple[str, ...] = PredictorConfig.VALID_KINDS

for _cls in ALGORITHMS.values():
    _instance = _cls()
    REGISTRY.register(
        "algorithm",
        _cls.name,
        _cls,
        aliases=_ALGORITHM_ALIASES.get(_cls.name, ()),
        metadata={
            "display_name": _cls.display_name,
            "default_predictor": _DEFAULT_PREDICTORS[_cls.name],
            "default_predictor_kind": _cls.default_predictor_kind,
            "decouple_writes": _cls.decouple_writes,
            "compatible_predictor_kinds": (
                _NO_FALSE_NEGATIVE_KINDS
                if _instance.forwards_on_negative()
                else _ANY_KIND
            ),
        },
    )
del _cls, _instance
