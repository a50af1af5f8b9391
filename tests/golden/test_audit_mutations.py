"""Mutation checks of the trace auditor on a real recorded trace.

The hand-built traces in ``tests/unit/test_obs.py`` and
``tests/unit/test_audit_rules.py`` break one rule at a time on a
two-node toy ring.  Here the trace is real: Criticality on splash2 at
200 accesses/core (8 CMPs, 49,207 events, 48 squashed transactions
and 110 MSHR waiter events), audited with Criticality's decision table
so every rule is armed.

* **Targeted** - one perturbation per rule, chosen so that rule must
  fire.  A rule that stops biting on real traffic fails here.
* **Random** - seeded perturbations (drop, duplicate, swap, retype or
  shift an event; flip a data field or the node).  Each one's whole
  violation list - txn, rule, anchor time, message and order - must
  equal ``audit_mutations.json``.  That golden was recorded with a
  reference auditor before the auditor was restructured for speed, so
  a rewrite that changes any verdict, message or order fails here.

Tier-1 checks an evenly spaced subset of the golden perturbations; set
``FLEXSNOOP_PROPERTY_EXAMPLES`` to the golden's size (or more) to check
every one.  Re-record the golden only from an auditor whose verdicts
are trusted::

    PYTHONPATH=src python tests/golden/test_audit_mutations.py
"""

from __future__ import annotations

import json
import os
import random
from collections import defaultdict

import pytest

from repro.core.algorithms import build_algorithm
from repro.obs.audit import TraceAuditor
from repro.obs.runner import run_traced
from repro.obs.trace import EventType

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "audit_mutations.json"
)

#: Random perturbations the golden holds.
PERTURBATIONS = 300
#: Golden perturbations one run checks: a fast tier-1 default, raised
#: for long runs.
EXAMPLES = int(os.environ.get("FLEXSNOOP_PROPERTY_EXAMPLES", "30"))

ALGORITHM = "criticality"

PERTURBATION_KINDS = ("drop", "duplicate", "swap", "retype", "shift", "flip")
#: Event types too rare for uniform picks to reach often; a third of
#: the perturbations target one of them.
RARE_TYPES = (
    EventType.ISSUE,
    EventType.RETIRE,
    EventType.SUPPLY,
    EventType.SQUASH,
    EventType.RETRY,
    EventType.MSHR,
    EventType.FILL,
)
#: Extra values a flipped string field may take beyond those the trace
#: itself uses, so flips reach the predictor and policy guarantees.
EXTRA_VALUES = {
    "kind": ("exact", "perfect", "subset"),
    "primitive": ("forward", "snoop"),
}


def record_cell():
    """The audited cell: ``(events, auditor)``."""
    traced = run_traced(ALGORITHM, "splash2", accesses_per_core=200)
    policy = build_algorithm(ALGORITHM)
    auditor = TraceAuditor(
        num_cmps=traced.meta["num_cmps"],
        successors=traced.meta.get("successors"),
        table=policy.decision_table(),
        decouple_writes=policy.decouple_writes,
    )
    return traced.events, auditor


def verdict(auditor, events):
    """The auditor's full answer as JSON-ready data."""
    try:
        violations = auditor.audit(events)
    except Exception as exc:  # a crash is a verdict too
        return {"raises": type(exc).__name__}
    return [[v.txn, v.rule, v.time, v.message] for v in violations]


# ----------------------------------------------------------------------
# Perturbations


def _first(events, predicate):
    return next(i for i, event in enumerate(events) if predicate(event))


def _txn_events(events, index):
    """Indices of every event of ``events[index]``'s transaction."""
    txn = events[index].txn
    return [i for i, event in enumerate(events) if event.txn == txn]


def _replace_data(events, index, **changes):
    out = list(events)
    event = out[index]
    out[index] = event._replace(data={**event.data, **changes})
    return out


def _drop(events, index):
    return events[:index] + events[index + 1:]


def _targeted_lifecycle(events):
    return _drop(events, _first(events, lambda e: e.type is EventType.RETIRE))


def _targeted_time(events):
    out = list(events)
    index = _first(out, lambda e: e.type is EventType.RETIRE)
    issue = out[_txn_events(out, index)[0]]
    out[index] = out[index]._replace(time=issue.time - 1)
    return out


def _targeted_conservation(events):
    return _drop(events, _first(events, lambda e: e.type is EventType.HOP))


def _targeted_recombination(events):
    stf = _first(
        events,
        lambda e: e.type is EventType.SNOOP
        and e.data["primitive"] == "snoop_then_forward",
    )
    hop = next(
        i
        for i in _txn_events(events, stf)
        if i > stf and events[i].type is EventType.HOP
    )
    return _replace_data(events, hop, mode="split")


def _targeted_supply(events):
    index = _first(events, lambda e: e.type is EventType.SUPPLY)
    return events[: index + 1] + events[index:]


def _targeted_predictor(events):
    # Superset predictors never miss a present supplier.
    index = _first(
        events,
        lambda e: e.type is EventType.PREDICTOR and e.data["truth"],
    )
    return _replace_data(events, index, prediction=False)


def _targeted_policy(events):
    # Criticality decouples its write snoops (forward_then_snoop).
    index = _first(
        events,
        lambda e: e.type is EventType.SNOOP and e.data["kind"] == "write",
    )
    return _replace_data(events, index, primitive="snoop_then_forward")


def _targeted_squash(events):
    return _drop(events, _first(events, lambda e: e.type is EventType.SQUASH))


def _targeted_fill(events):
    return _drop(events, _first(events, lambda e: e.type is EventType.FILL))


def _targeted_mshr(events):
    index = _first(
        events,
        lambda e: e.type is EventType.MSHR and e.data["phase"] == "reissue",
    )
    return _replace_data(events, index, position=events[index].data["position"] + 1)


def _targeted_serialization(events):
    index = _first(
        events,
        lambda e: e.type is EventType.ISSUE and e.data["squashed"],
    )
    return _replace_data(events, index, squashed=False)


TARGETED = {
    "lifecycle": _targeted_lifecycle,
    "time": _targeted_time,
    "conservation": _targeted_conservation,
    "recombination": _targeted_recombination,
    "supply": _targeted_supply,
    "predictor": _targeted_predictor,
    "policy": _targeted_policy,
    "squash": _targeted_squash,
    "fill": _targeted_fill,
    "mshr": _targeted_mshr,
    "serialization": _targeted_serialization,
}


def _targets(events):
    """Index pools perturbations draw from: every event, the events of
    transactions whose rules need order (squashed ones, ones with MSHR
    waiters, ones a cache supplied), and the rare event types."""
    hot_txns = {
        event.txn
        for event in events
        if event.type in (EventType.SQUASH, EventType.MSHR, EventType.SUPPLY)
    }
    return (
        range(len(events)),
        [i for i, event in enumerate(events) if event.txn in hot_txns],
        [i for i, event in enumerate(events) if event.type in RARE_TYPES],
    )


def _vocabulary(events):
    values = defaultdict(set)
    for event in events:
        for key, value in event.data.items():
            if isinstance(value, str):
                values[key].add(value)
    for key, extra in EXTRA_VALUES.items():
        values[key].update(extra)
    return {key: sorted(found) for key, found in values.items()}


def perturb(events, seed, targets, vocabulary, num_cmps):
    """One seeded random perturbation: ``(label, perturbed events)``."""
    rng = random.Random(seed)
    kind = rng.choice(PERTURBATION_KINDS)
    index = rng.choice(rng.choice(targets))
    event = events[index]
    label = "%s #%d (%s txn %d)" % (kind, index, event.type.value, event.txn)
    if kind == "drop":
        return label, _drop(events, index)
    if kind == "duplicate":
        return label, events[: index + 1] + events[index:]
    if kind == "swap":
        # With the next event of the same transaction, when there is
        # one nearby: swapping unrelated transactions changes nothing
        # the per-transaction rules see.
        later = [
            i
            for i in range(index + 1, min(len(events), index + 400))
            if events[i].txn == event.txn
        ]
        other = later[0] if later else rng.randrange(len(events))
        out = list(events)
        out[index], out[other] = out[other], out[index]
        return "%s<->#%d" % (label, other), out
    if kind == "retype":
        new_type = rng.choice([t for t in EventType if t is not event.type])
        out = list(events)
        out[index] = event._replace(type=new_type)
        return "%s->%s" % (label, new_type.value), out
    if kind == "shift":
        delta = rng.choice((-1000, -100, -1, 1, 100, 1000))
        out = list(events)
        out[index] = event._replace(time=event.time + delta)
        return "%s%+d" % (label, delta), out
    key = rng.choice(sorted(event.data) + ["node"])
    out = list(events)
    if key == "node":
        node = (event.node + rng.choice((-1, 1))) % num_cmps
        out[index] = event._replace(node=node)
        return "%s node=%d" % (label, node), out
    value = event.data[key]
    if isinstance(value, bool):
        new = not value
    elif isinstance(value, int):
        new = value + rng.choice((-1, 1))
    else:
        new = rng.choice([v for v in vocabulary[key] if v != value])
    out[index] = event._replace(data={**event.data, key: new})
    return "%s %s=%r" % (label, key, new), out


def perturbations(events, num_cmps):
    """Every golden perturbation, in golden order."""
    targets = _targets(events)
    vocabulary = _vocabulary(events)
    for seed in range(PERTURBATIONS):
        yield seed, perturb(events, seed, targets, vocabulary, num_cmps)


def record_golden(path=GOLDEN_PATH):
    events, auditor = record_cell()
    golden = [
        {"seed": seed, "mutation": label, "verdict": verdict(auditor, perturbed)}
        for seed, (label, perturbed) in perturbations(events, auditor.num_cmps)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")


# ----------------------------------------------------------------------
# Tests


@pytest.fixture(scope="module")
def cell():
    return record_cell()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_real_trace_is_clean_with_squashes_and_mshr_waiters(cell):
    events, auditor = cell
    assert auditor.audit(events) == []
    counts = defaultdict(int)
    for event in events:
        counts[event.type] += 1
    assert counts[EventType.SQUASH] == 48
    assert counts[EventType.MSHR] == 110


@pytest.mark.parametrize("rule", sorted(TARGETED))
def test_targeted_perturbation_fires_its_rule(cell, rule):
    events, auditor = cell
    perturbed = TARGETED[rule](events)
    assert rule in {violation.rule for violation in auditor.audit(perturbed)}


def test_golden_covers_every_perturbation_kind_and_rule(golden):
    assert len(golden) == PERTURBATIONS
    kinds = {entry["mutation"].split()[0] for entry in golden}
    assert kinds == set(PERTURBATION_KINDS)
    fired = {
        violation[1]
        for entry in golden
        if isinstance(entry["verdict"], list)
        for violation in entry["verdict"]
    }
    assert fired == set(TARGETED)


def test_random_perturbations_match_golden(cell, golden):
    events, auditor = cell
    count = min(EXAMPLES, len(golden))
    selected = {i * len(golden) // count for i in range(count)}
    checked = 0
    for seed, (label, perturbed) in perturbations(events, auditor.num_cmps):
        if seed not in selected:
            continue
        entry = golden[seed]
        assert entry["seed"] == seed and entry["mutation"] == label
        assert verdict(auditor, perturbed) == entry["verdict"], label
        checked += 1
    assert checked == count


if __name__ == "__main__":
    record_golden()
