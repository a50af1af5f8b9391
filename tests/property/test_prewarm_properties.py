"""Generated prewarm line lists: installing the prewarm image equals
filling every line through the generic ``Cache.fill`` path.

``test_prewarm_fast_path_matches_generic_fill`` pins one overflow
workload; this property draws the line lists instead.  Lines repeat
within a core (refills of resident lines) and across cores (a second
core filling a line another core still supplies), on 1, 2 and 4 cores
per CMP, with caches and predictors small enough that every draw
evicts lines, drops or downgrades predictor entries and, for Exact,
downgrades lines that a core refills or another core fills later.
Each draw must leave both paths in an equal ``machine_state``, or make
both raise a ``CoherenceError`` with the same message.

A second property holds the Subset and Superset predictors' bulk
training (``prewarm_train``) to the per-op ``insert``/``remove``
replay over the same walk's streams.

Tier-1 runs a fast profile; set ``FLEXSNOOP_PROPERTY_EXAMPLES`` (e.g.
to 200) for a long run.
"""

from __future__ import annotations

import dataclasses
import os

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.coherence.protocol import CoherenceError
from repro.coherence.states import LineState
from repro.config import CacheConfig, PredictorConfig, default_machine
from repro.core.algorithms import build_algorithm
from repro.core.predictors import SupplierPredictor, build_predictor
from repro.registry import REGISTRY
from repro.sim.prewarm import _walk
from repro.workloads.synthetic import SharingProfile, generate_workload
from tests.integration.test_warmup_and_prewarm import machine_state

#: Examples per run: a fast tier-1 default, raised for long runs.
EXAMPLES = int(os.environ.get("FLEXSNOOP_PROPERTY_EXAMPLES", "60"))

#: The algorithm that runs each predictor kind.
ALGORITHMS = {"subset": "subset", "superset": "superset_con", "exact": "exact"}


@st.composite
def predictors(draw):
    kind = draw(st.sampled_from(sorted(ALGORITHMS)))
    associativity = draw(st.sampled_from([1, 2]))
    entries = associativity * draw(st.sampled_from([1, 2, 4]))
    if kind == "superset":
        return PredictorConfig(
            kind=kind,
            bloom_fields=draw(st.sampled_from([(2, 2, 2), (3, 1, 2), (4,)])),
            exclude_entries=entries,
            exclude_associativity=associativity,
        )
    return PredictorConfig(kind=kind, entries=entries, associativity=associativity)


@st.composite
def prewarm_cases(draw):
    cores_per_cmp = draw(st.sampled_from([1, 2, 4]))
    num_cmps = draw(st.integers(2, 3))
    num_cores = num_cmps * cores_per_cmp
    # Line ids below ``shared`` are the same address on every core;
    # the rest are private to the core that lists them.
    shared = draw(st.sampled_from([0, 0, 1, 3]))
    private = draw(st.integers(1, 10))
    lines = []
    for core in range(num_cores):
        ids = draw(
            st.lists(st.integers(0, shared + private - 1), max_size=14)
        )
        lines.append(
            [line if line < shared else (core + 1) * 64 + line for line in ids]
        )
    associativity = draw(st.sampled_from([1, 2, 4]))
    cache = CacheConfig(
        num_lines=associativity * draw(st.sampled_from([1, 2, 4])),
        associativity=associativity,
    )
    predictor = draw(predictors())
    core = draw(st.sampled_from(["object", "soa"]))
    write_filter = core == "object" and draw(st.booleans())
    return lines, cores_per_cmp, cache, predictor, core, write_filter


def build(workload, core, cache, predictor, write_filter):
    algorithm = ALGORITHMS[predictor.kind]
    machine = default_machine(
        algorithm=algorithm,
        num_cmps=workload.num_cores // workload.cores_per_cmp,
        cores_per_cmp=workload.cores_per_cmp,
        cache=cache,
        filter_write_snoops=write_filter,
    ).replace(predictor=predictor)
    return REGISTRY.create(
        "core", core, machine, build_algorithm(algorithm), workload
    )


def outcome(construct):
    """``("state", machine_state)`` or ``("error", message)``."""
    try:
        return "state", machine_state(construct())
    except CoherenceError as exc:
        return "error", str(exc)


#: A one-entry Exact table downgrades line 0 on core 0 when line 65
#: fills, so another core may fill line 0 without a conflict: core 1 in
#: another CMP, or core 1 in the same CMP, whose copy then stays E while
#: core 0's stays SL.
_TINY_CACHE = CacheConfig(num_lines=2, associativity=2)
_TINY_EXACT = PredictorConfig(kind="exact", entries=1, associativity=1)


@given(prewarm_cases())
@example(([[65, 0], [0]], 1, _TINY_CACHE, _TINY_EXACT, "object", False))
@example(([[65, 0], [0], [], []], 2, _TINY_CACHE, _TINY_EXACT, "object", False))
@example(([[65, 0], [0], [], []], 2, _TINY_CACHE, _TINY_EXACT, "soa", False))
@settings(max_examples=EXAMPLES, deadline=None)
def test_prewarm_image_matches_generic_fill(case):
    lines, cores_per_cmp, cache, predictor, core, write_filter = case
    bare = generate_workload(
        SharingProfile(
            name="prewarm-prop",
            num_cores=len(lines),
            cores_per_cmp=cores_per_cmp,
            accesses_per_core=2,
            shared_lines=4,
            private_lines=4,
            seed=len(lines),
        )
    )
    workload = dataclasses.replace(bare, prewarm=lines)

    def generic():
        system = build(bare, "object", cache, predictor, write_filter)
        for core_, core_lines in zip(system.cores, lines):
            target = system.nodes[core_.cmp_id].caches[core_.local_id]
            for address in reversed(core_lines):
                target.fill(address, LineState.E, 0)
        return system

    expected = outcome(generic)
    actual = outcome(
        lambda: build(workload, core, cache, predictor, write_filter)
    )
    event("%s %s" % (predictor.kind, expected[0]))
    if core == "soa" and expected[0] == "state":
        expected[1]["extra"] = None
    assert actual == expected


@given(
    prewarm_cases(),
    predictors().filter(lambda config: config.kind != "exact"),
    st.lists(st.integers(0, 400), max_size=6),
)
@settings(max_examples=EXAMPLES, deadline=None)
def test_bulk_training_matches_per_op_replay(case, predictor, excluded):
    lines, cores_per_cmp, cache, _, _, _ = case
    image = _walk(
        lines, cache.num_sets, cache.associativity, cores_per_cmp
    )
    for cmp_id in range(len(lines) // cores_per_cmp):
        ops = image._cmp_ops(cmp_id)
        bulk = build_predictor(predictor)
        replayed = build_predictor(predictor)
        # Superset's Exclude cache is empty before a run; seed it so
        # the inserts' removals from it are checked too.
        for address in excluded:
            bulk.observe_false_positive(address)
            replayed.observe_false_positive(address)
        bulk.prewarm_train(ops)
        SupplierPredictor.prewarm_train(replayed, ops)
        assert bulk.prewarm_snapshot() == replayed.prewarm_snapshot()
