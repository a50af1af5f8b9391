"""Trace equivalence: the soa core emits the object core's trace.

The soa core's trace sink claims more than equal summaries: the same
events at the same simulated instants, with the same transaction ids
and payloads, in the same order.  So every cell here runs on both
cores, built through the core registry, into a JSONL sink, and the
two files - header included - must be byte-identical:

* the 28 golden cells, with ``check_invariants`` on, at the golden
  scale;
* the 90 contended golden cells (link occupancy, snoop-port
  serialization, flat ring and 16-CMP hier_ring), with
  ``check_invariants`` on too.

The per-retire invariant check itself is differential as well: a
cache line corrupted into a second supplier mid-run must make both
cores raise the same :class:`~repro.coherence.protocol.CoherenceError`.
"""

from __future__ import annotations

import pytest

from repro.coherence.protocol import CoherenceError
from repro.coherence.states import LineState
from repro.config import TraceConfig
from repro.core.algorithms import build_algorithm
from repro.harness.parallel import RunSpec, _cached_source
from repro.obs.trace import EventType, JsonlStreamSink, TraceSink
from repro.registry import REGISTRY
from tests.golden.test_contention_equivalence import (
    ALGORITHMS as CONTENDED_ALGORITHMS,
)
from tests.golden.test_contention_equivalence import (
    MODES,
    THINK_SCALES,
    TOPOLOGIES,
    WARMUP,
    contended_machine,
    contended_source,
)
from tests.golden.test_soa_equivalence import (
    GOLDEN_CELLS,
    GOLDEN_SCALE,
    _cell_id,
)

CORES = ("object", "soa")


def golden_machine(cell):
    """A golden cell's machine and source, resolved as ``run_traced``
    resolves them, with tracing and invariant checks on."""
    source = _cached_source(cell["workload"], GOLDEN_SCALE, 0, 0, 1.0)
    spec = RunSpec(
        algorithm=cell["algorithm"],
        workload=cell["workload"],
        accesses_per_core=GOLDEN_SCALE,
        seed=0,
        warmup_fraction=cell["warmup_fraction"],
    )
    machine = spec.resolve_config(source.cores_per_cmp, source.num_cmps)
    return audited(machine), source


def audited(machine):
    return machine.replace(
        tracing=TraceConfig(enabled=True), check_invariants=True
    )


def build(core, machine, algorithm, source, warmup, sink):
    return REGISTRY.create(
        "core",
        core,
        machine,
        build_algorithm(algorithm),
        source,
        warmup_fraction=warmup,
        trace_sink=sink,
    )


def record(core, machine, algorithm, source, warmup, path):
    """Run ``core`` into a JSONL file at ``path``, with a header built
    from the result; returns the result."""
    with JsonlStreamSink(str(path)) as sink:
        result = build(core, machine, algorithm, source, warmup, sink).run()
        sink.meta = {
            "algorithm": result.algorithm,
            "workload": result.workload,
            "num_cmps": machine.num_cmps,
            "exec_time": result.exec_time,
            "events": result.events,
        }
    return result


def assert_same_file(tmp_path, machine, algorithm, source, warmup):
    """Record on both cores; the files must be byte-identical.
    Returns the object core's result."""
    files = {}
    results = {}
    for core in CORES:
        path = tmp_path / ("%s.jsonl" % core)
        results[core] = record(core, machine, algorithm, source, warmup, path)
        files[core] = path.read_bytes()
    if files["soa"] != files["object"]:
        expected = files["object"].splitlines()
        actual = files["soa"].splitlines()
        line = next(
            (
                index
                for index, (a, b) in enumerate(zip(expected, actual))
                if a != b
            ),
            min(len(expected), len(actual)),
        )
        pytest.fail(
            "traces differ first at line %d (%d vs %d lines):\n"
            "  object: %r\n  soa:    %r"
            % (
                line + 1,
                len(expected),
                len(actual),
                expected[line] if line < len(expected) else None,
                actual[line] if line < len(actual) else None,
            )
        )
    assert len(files["object"].splitlines()) > 1, "no events traced"
    return results["object"]


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=_cell_id)
def test_golden_cell_traces_are_byte_identical(cell, tmp_path):
    machine, source = golden_machine(cell)
    result = assert_same_file(
        tmp_path,
        machine,
        cell["algorithm"],
        source,
        cell["warmup_fraction"],
    )
    assert result.summary() == cell["summary"]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m[0])
@pytest.mark.parametrize("think_scale", THINK_SCALES, ids=lambda s: "t%g" % s)
@pytest.mark.parametrize(
    "topology", TOPOLOGIES, ids=lambda t: "%s%d" % t
)
@pytest.mark.parametrize("algorithm", CONTENDED_ALGORITHMS)
def test_contended_cell_traces_are_byte_identical(
    algorithm, topology, think_scale, mode, tmp_path
):
    kind, num_cmps = topology
    _, occupancy, serialize = mode
    machine = contended_machine(
        algorithm, kind, num_cmps, occupancy, serialize
    )
    assert_same_file(
        tmp_path,
        audited(machine),
        algorithm,
        contended_source(num_cmps, think_scale),
        WARMUP,
    )


# ----------------------------------------------------------------------
# A corrupted line, caught the same way on both cores


class _CorruptAtRetire(TraceSink):
    """At the retirement of a read whose data came from another cache,
    turns the requester's (shared) copy into a supplier behind the
    indexes' back, once: the line then has two suppliers.

    ``corrupt(core_id, address)`` does the write on one core's state
    and says whether the copy was still resident.
    """

    def __init__(self) -> None:
        self.corrupt = None
        self.done = False
        self._core_of = {}
        self._from_cache = set()

    def emit(self, event) -> None:
        if self.done:
            return
        if event.type is EventType.ISSUE and event.data["kind"] == "read":
            self._core_of[event.txn] = event.data["core"]
        elif (
            event.type is EventType.FILL
            and event.data["source"] == "cache"
        ):
            self._from_cache.add(event.txn)
        elif (
            event.type is EventType.RETIRE
            and event.txn in self._from_cache
        ):
            self.done = self.corrupt(
                self._core_of[event.txn], event.address
            )


def _corrupt_object(system, cores_per_cmp):
    def corrupt(core_id, address):
        cmp_id, local = divmod(core_id, cores_per_cmp)
        line = system.nodes[cmp_id].caches[local].lookup(
            address, touch=False
        )
        if line is None:
            return False
        line.state = LineState.E
        return True

    return corrupt


def _corrupt_soa(soa, num_sets):
    from repro.sim.soa import _E, _VERSION

    def corrupt(core_id, address):
        cache_set = soa._core_sets[core_id][address % num_sets]
        line = None if cache_set is None else cache_set.get(address)
        if line is None:
            return False
        cache_set[address] = line & _VERSION | _E
        return True

    return corrupt


def test_corrupted_second_supplier_raises_the_same_error_on_both_cores():
    cell = next(
        c
        for c in GOLDEN_CELLS
        if (c["algorithm"], c["workload"], c["warmup_fraction"])
        == ("lazy", "specjbb", 0.0)
    )
    machine, source = golden_machine(cell)
    messages = {}
    for core in CORES:
        sink = _CorruptAtRetire()
        system = build(core, machine, "lazy", source, 0.0, sink)
        sink.corrupt = (
            _corrupt_object(system, machine.cores_per_cmp)
            if core == "object"
            else _corrupt_soa(system, machine.cache.num_sets)
        )
        with pytest.raises(CoherenceError) as excinfo:
            system.run()
        assert sink.done
        messages[core] = str(excinfo.value)
    assert "global suppliers" in messages["object"]
    assert messages["soa"] == messages["object"]
