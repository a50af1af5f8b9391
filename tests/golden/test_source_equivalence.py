"""Golden equivalence: file replay is bit-identical to generation.

The workload-source refactor's acceptance criterion: saving a
workload to a ``flexsnoop-trace`` file and replaying it through the
streaming ``file:`` source must reproduce *every* summary statistic
of the in-memory run, for every algorithm - the streaming feed
changes how accesses reach the cores, never what they are.

One trace file is saved per workload (module-scoped) and every
algorithm cell replays it; the in-memory reference runs through the
identical ``RunSpec`` path on the object core, so the only varying
factor is the source.
"""

from __future__ import annotations

import pytest

from repro.harness.parallel import RunSpec, _cached_source, execute_spec
from repro.workloads.io import save_trace
from repro.workloads.source import resolve_source

#: Accesses per core for the equivalence matrix (matches the golden
#: capture scale of test_golden_equivalence.py).
GOLDEN_SCALE = 200

ALGORITHMS = (
    "lazy",
    "eager",
    "oracle",
    "subset",
    "superset_con",
    "superset_agg",
    "exact",
)

#: (workload, algorithms) cells: the full algorithm matrix on the
#: multi-core SPLASH-2 mix plus one single-core-per-CMP commercial
#: profile to cover the other geometry.
MATRIX = [
    ("splash2", ALGORITHMS),
    ("specjbb", ("lazy", "superset_agg")),
]


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-replay")
    files = {}
    for workload, _algorithms in MATRIX:
        trace = resolve_source(
            workload, accesses_per_core=GOLDEN_SCALE, seed=0
        ).materialize()
        path = root / ("%s.jsonl" % workload)
        save_trace(trace, path)
        files[workload] = str(path)
    return files


@pytest.mark.parametrize(
    "workload, algorithm",
    [
        (workload, algorithm)
        for workload, algorithms in MATRIX
        for algorithm in algorithms
    ],
)
def test_file_replay_matches_generation(
    trace_files, workload, algorithm
):
    _cached_source.cache_clear()
    direct = execute_spec(
        RunSpec(
            algorithm=algorithm,
            workload=workload,
            accesses_per_core=GOLDEN_SCALE,
            seed=0,
            warmup_fraction=0.35,
            core="object",
        )
    )
    replayed = execute_spec(
        RunSpec(
            algorithm=algorithm,
            workload="file:%s" % trace_files[workload],
            warmup_fraction=0.35,
            core="object",
        )
    )
    assert direct.core == replayed.core == "object"
    assert replayed.summary() == direct.summary()
    assert replayed.exec_time == direct.exec_time
    assert replayed.stats.summary() == direct.stats.summary()
    _cached_source.cache_clear()
