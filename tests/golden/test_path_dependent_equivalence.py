"""Golden cells on a path-dependent topology: both cores walk its rows.

``_DynamicTopology`` (``tests/unit/test_topology.py``) visits the odd
nodes first and then the even ones, so every requester has its own
visiting order and no single successor cycle describes the walk.  The
cells in ``path_dependent.json`` were captured from the object core
while it still called ``route()`` and ``segment_latency()`` per hop.
Both cores now walk the per-requester rows that
``SnoopTopology.export_tables`` unrolls, and each must reproduce every
cell: ``summary()``, the engine event count, and the trace's encoded
event lines (their count and SHA-256).

The matrix crosses lazy, eager, exact, criticality and a test-local
table-less policy whose choice reads the message's ring age with two
contention modes: none, and link occupancy plus snoop-port
serialization.

Re-capture (only when a change is meant to move these cells):
``PYTHONPATH=src python -m tests.golden.test_path_dependent_equivalence``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
from typing import Iterator, List, Tuple

import pytest

from repro.config import TraceConfig, default_machine
from repro.core.algorithms import SnoopingAlgorithm, build_algorithm
from repro.core.decision import as_context
from repro.core.primitives import Primitive
from repro.obs.jsonl import encode_event
from repro.obs.trace import InMemorySink
from repro.registry import REGISTRY
from repro.sim.soa import SoaRingMultiprocessor
from repro.sim.system import RingMultiprocessor, SimulationResult
from repro.workloads.source import SyntheticSource
from repro.workloads.synthetic import SharingProfile
from tests.unit.test_topology import _DynamicTopology

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "path_dependent.json")

TOPOLOGY = "oddfirst"
NUM_CMPS = 8
CORES_PER_CMP = 2
ACCESSES_PER_CORE = 40
WARMUP = 0.3
ALGORITHMS = ["lazy", "eager", "exact", "criticality", "age_split"]
#: (mode id, link occupancy, serialize snoop ports).
MODES = [("free", 0, False), ("occ600-serial", 600, True)]
CORES = {"object": RingMultiprocessor, "soa": SoaRingMultiprocessor}


class AgeSplit(SnoopingAlgorithm):
    """Forward-then-snoop on a positive prediction in the first half
    of the walk, snoop-then-forward in the second; filter negatives.

    The choice reads the ring age, so the policy publishes no table
    and both cores call ``choose`` per hop with the age of the node
    on the requester's own visiting order.
    """

    name = "age_split"
    display_name = "AgeSplit"
    default_predictor_kind = "superset"
    decouple_writes = True

    def decision_table(self):
        return None

    def decision_inputs(self) -> Tuple[str, ...]:
        return ("prediction", "ring_age")

    def choose(self, ctx) -> Primitive:
        context = as_context(ctx)
        if not context.prediction:
            return Primitive.FORWARD
        if context.ring_age <= NUM_CMPS // 2:
            return Primitive.FORWARD_THEN_SNOOP
        return Primitive.SNOOP_THEN_FORWARD


@contextlib.contextmanager
def oddfirst_registered() -> Iterator[None]:
    REGISTRY.register(
        "topology", TOPOLOGY, lambda config: _DynamicTopology(config.num_cmps)
    )
    try:
        yield
    finally:
        REGISTRY.unregister("topology", TOPOLOGY)


def build_policy(name: str) -> SnoopingAlgorithm:
    return AgeSplit() if name == AgeSplit.name else build_algorithm(name)


def cell_machine(algorithm: str, occupancy: int, serialize: bool):
    if algorithm == AgeSplit.name:
        machine = default_machine(
            predictor="Supy2k", num_cmps=NUM_CMPS, cores_per_cmp=CORES_PER_CMP
        )
    else:
        machine = default_machine(
            algorithm=algorithm, num_cmps=NUM_CMPS, cores_per_cmp=CORES_PER_CMP
        )
    return machine.replace(
        ring=dataclasses.replace(
            machine.ring,
            link_occupancy=occupancy,
            serialize_snoop_port=serialize,
        ),
        topology=dataclasses.replace(machine.topology, kind=TOPOLOGY),
        tracing=TraceConfig(enabled=True),
        check_invariants=True,
    )


def cell_source() -> SyntheticSource:
    return SyntheticSource(
        SharingProfile(
            name="oddfirst",
            num_cores=NUM_CMPS * CORES_PER_CMP,
            cores_per_cmp=CORES_PER_CMP,
            accesses_per_core=ACCESSES_PER_CORE,
            p_shared=0.5,
            shared_lines=64,
            private_lines=64,
            write_fraction_shared=0.3,
            prewarm_fraction=0.3,
            think_mean=12.0,
            seed=11,
        )
    )


def run_cell(core: str, algorithm: str, mode: str) -> dict:
    """One traced run of a cell, reduced to what the golden pins."""
    _, occupancy, serialize = next(m for m in MODES if m[0] == mode)
    sink = InMemorySink()
    result: SimulationResult = CORES[core](
        cell_machine(algorithm, occupancy, serialize),
        build_policy(algorithm),
        cell_source(),
        warmup_fraction=WARMUP,
        trace_sink=sink,
    ).run()
    lines: List[str] = [encode_event(event) for event in sink.events]
    return {
        "summary": result.summary(),
        "events": result.events,
        "trace_lines": len(lines),
        "trace_sha256": hashlib.sha256(
            "\n".join(lines).encode("utf-8")
        ).hexdigest(),
    }


def _load() -> list:
    if not os.path.exists(GOLDEN_PATH):
        return []
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


GOLDEN_CELLS = _load()


def _cell_id(cell) -> str:
    return "%s-%s" % (cell["algorithm"], cell["mode"])


@pytest.fixture(scope="module", autouse=True)
def _oddfirst():
    with oddfirst_registered():
        yield


def test_golden_matrix_is_complete():
    assert sorted(_cell_id(cell) for cell in GOLDEN_CELLS) == sorted(
        "%s-%s" % (algorithm, mode[0])
        for algorithm in ALGORITHMS
        for mode in MODES
    )


@pytest.mark.parametrize("core", sorted(CORES))
@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=_cell_id)
def test_cell_reproduces_the_route_walker_capture(cell, core):
    got = run_cell(core, cell["algorithm"], cell["mode"])
    expected = {key: cell[key] for key in got}
    assert got == expected


def test_cells_are_not_vacuous():
    """Contention moves the timing and squashes transactions, so the
    criticality cells reach its retry rows."""
    by_id = {_cell_id(cell): cell for cell in GOLDEN_CELLS}
    for algorithm in ALGORITHMS:
        free = by_id["%s-free" % algorithm]["summary"]
        contended = by_id["%s-occ600-serial" % algorithm]["summary"]
        assert contended["exec_time"] > free["exec_time"]
    assert by_id["criticality-occ600-serial"]["summary"]["squashes"] > 0


def capture(path: str = GOLDEN_PATH) -> None:
    """Record every cell from the object core."""
    cells = []
    with oddfirst_registered():
        for algorithm in ALGORITHMS:
            for mode, _, _ in MODES:
                cell = {"algorithm": algorithm, "mode": mode}
                cell.update(run_cell("object", algorithm, mode))
                cells.append(cell)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cells, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    capture()
