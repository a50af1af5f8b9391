#!/usr/bin/env python
"""Custom decision policy: register a new snooping algorithm.

Every snooping algorithm is a *decision policy* behind the decision
seam (`repro/core/decision.py`): it maps a `DecisionContext` - the
supplier prediction plus the requester's urgency signals (retry
count, MSHR-waiter depth, ring age) - to one of the three Table 2
primitives.  A policy that publishes its behaviour as a static
:class:`~repro.core.decision.DecisionTable` runs on *both*
simulation cores: the fused ``soa`` core hoists the table and
thresholds into plain integers and tallies its declared counted output
in its event loop.

This example builds **Backoff**: aggressive Forward-Then-Snoop while
the requester is calm, but once its access has been squashed and
retried it *yields* - Snoop-Then-Forward keeps the contended line to
one message on the ring.  (The opposite bet from the builtin
``criticality``, which spends extra bandwidth on urgent requesters.)
Because Backoff is a table, the example runs it bit-identically on
the object and soa cores, with an exact ``backoff_choices`` counter
on each.

The second half shows the other side of the contract: a policy whose
decision depends on state *outside* the context (a decision-count
phase) publishes no table, so every core calls its ``choose()`` per
hop - and the soa core still runs it bit-identically to the object
core.

A third-party package registers the same classes with entry points
(no edits to this repo); the optional ``registry_metadata`` attribute
supplies the registration metadata in that route too:

    [project.entry-points."flexsnoop.algorithms"]
    backoff = "my_pkg.policies:Backoff"

Once registered, the names work everywhere at once -
``flexsnoop run --algorithm backoff``, ``flexsnoop figure saturation
--algorithms all`` (which expands to every registered algorithm,
plugins included), policy-aware trace audits, the result cache.

Run:  python examples/custom_policy.py
"""

from __future__ import annotations

from repro.config import default_machine
from repro.core.algorithms import SnoopingAlgorithm, build_algorithm
from repro.core.decision import DecisionTable, as_context
from repro.core.primitives import Primitive
from repro.harness.experiments import run_experiment
from repro.registry import REGISTRY
from repro.sim.soa import SoaRingMultiprocessor
from repro.sim.system import RingMultiprocessor
from repro.workloads.source import resolve_source

WORKLOAD = "splash2"
SCALE = 240


class Backoff(SnoopingAlgorithm):
    """Aggressive while calm, conservative once squashed.

    Calm row: Forward Then Snoop on a positive prediction (Superset
    Agg's bet - latency first).  Critical row (the access has been
    retried): Snoop Then Forward, yielding ring bandwidth on a line
    that is evidently contended.  Negatives filter in both rows, so
    the policy needs a no-false-negative predictor, like the
    Superset family.
    """

    name = "backoff"
    display_name = "Backoff"
    default_predictor_kind = "superset"
    decouple_writes = True

    #: Entry-point registrations read this attribute; the in-process
    #: registration below passes the same dict explicitly.
    registry_metadata = {
        "display_name": "Backoff",
        "default_predictor": "Supy2k",
        "default_predictor_kind": "superset",
        "decouple_writes": True,
        "compatible_predictor_kinds": ("superset", "exact", "perfect"),
    }

    def __init__(self, retry_threshold: int = 1) -> None:
        self.table = DecisionTable(
            on_true=Primitive.FORWARD_THEN_SNOOP,
            on_false=Primitive.FORWARD,
            critical_true=Primitive.SNOOP_THEN_FORWARD,
            critical_false=Primitive.FORWARD,
            retry_threshold=retry_threshold,
            counts="critical",
        )
        self.backoff_choices = 0

    def fold_choice_counts(self, count: int) -> None:
        self.backoff_choices += count

    def choose(self, ctx) -> Primitive:
        context = as_context(ctx)
        table = self.table
        if table.is_critical(context):
            self.backoff_choices += 1
        return table.decide(context)


class PhaseSampler(SnoopingAlgorithm):
    """Alternate Agg/Con on a decision-count phase.

    The phase counter lives *outside* the `DecisionContext`, so the
    policy cannot publish a table: ``decision_table()`` stays None and
    every core calls ``choose()`` per hop, in the same order.
    """

    name = "phase_sampler"
    display_name = "Phase Sampler"
    default_predictor_kind = "superset"
    decouple_writes = True

    registry_metadata = {
        "display_name": "Phase Sampler",
        "default_predictor": "Supy2k",
        "default_predictor_kind": "superset",
        "decouple_writes": True,
        "compatible_predictor_kinds": ("superset", "exact", "perfect"),
    }

    PHASE = 1024

    def __init__(self) -> None:
        self._decisions = 0

    def decision_inputs(self):
        return ("prediction", "decision_count")

    def choose(self, ctx) -> Primitive:
        context = as_context(ctx)
        if not context.prediction:
            return Primitive.FORWARD
        self._decisions += 1
        if (self._decisions // self.PHASE) % 2:
            return Primitive.SNOOP_THEN_FORWARD
        return Primitive.FORWARD_THEN_SNOOP


def register() -> None:
    for cls in (Backoff, PhaseSampler):
        REGISTRY.register(
            "algorithm", cls.name, cls, metadata=cls.registry_metadata
        )


def run_on(core_cls):
    algorithm = build_algorithm("backoff")
    # Compressed think time piles transactions on top of each other,
    # so squash/retry cycles (Backoff's decision input) actually
    # happen - and it stays inside the soa core's envelope.
    source = resolve_source(
        WORKLOAD, accesses_per_core=SCALE, think_scale=0.25
    )
    machine = default_machine(
        algorithm="backoff",
        cores_per_cmp=source.cores_per_cmp,
        num_cmps=source.num_cmps,
    )
    result = core_cls(machine, algorithm, source).run()
    return result, algorithm


def main() -> None:
    register()
    backoff = build_algorithm("backoff")
    print(
        "registered 'backoff': decision inputs %s, counted output %r"
        % (
            "/".join(backoff.decision_inputs()),
            backoff.table.counts,
        )
    )
    print()

    # The table-backed policy runs on both cores, bit-identical, with
    # the counted output exact on each.
    cores = (
        ("object", RingMultiprocessor),
        ("soa", SoaRingMultiprocessor),
    )
    header = "%-8s %14s %16s" % ("core", "exec (cyc)", "backoff choices")
    print(header)
    print("-" * len(header))
    baseline = None
    for core_name, core_cls in cores:
        result, algorithm = run_on(core_cls)
        print(
            "%-8s %14d %16d"
            % (core_name, result.exec_time, algorithm.backoff_choices)
        )
        if baseline is None:
            baseline = (result.summary(), algorithm.backoff_choices)
        else:
            assert result.summary() == baseline[0], "summaries diverged"
            assert algorithm.backoff_choices == baseline[1]
    print("both cores bit-identical, counters exact")
    print()

    # The dynamic policy runs per hop on both cores, bit-identically.
    dynamic = {
        core: run_experiment(
            "phase_sampler", WORKLOAD, accesses_per_core=SCALE, core=core
        )
        for core in ("object", "soa")
    }
    for core, result in dynamic.items():
        print(
            "phase_sampler on core=%s: exec %d cycles"
            % (core, result.exec_time)
        )
    assert (
        dynamic["soa"].summary() == dynamic["object"].summary()
    ), "phase_sampler diverged between cores"
    print("dynamic policy bit-identical on both cores")


if __name__ == "__main__":
    main()
