"""Contended golden cells: the soa core against the object core.

Link occupancy (``ring.link_occupancy``) and snoop-port serialization
(``ring.serialize_snoop_port``) run inside the soa core's fused loop as
flat "next free cycle" tables.  The claim is bit-identity with
``RingWalker``'s reservations, so every cell here runs both cores on
one configuration and compares:

* ``summary()``, ``exec_time`` and the processed-event count;
* the walker's occupancy counters (``link_busy_cycles``,
  ``port_wait_cycles``) against the soa core's run attributes.

The matrix crosses the loaded-regime policies (lazy, eager, exact,
superset_hybrid, criticality) with the flat ring and the 16-CMP
hier_ring (shared global-ring links), three injection points (think
scale 10, 1, 0.3) and the three contention modes.  Two CMP cores share
each snoop port and MSHR, so retries and waiter queues - the inputs
criticality reacts to - occur in the heavier cells.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

import repro.sim.soa as soa_module
from repro.config import default_machine
from repro.core.algorithms import build_algorithm
from repro.sim.soa import SoaRingMultiprocessor
from repro.sim.system import RingMultiprocessor
from repro.workloads.source import SyntheticSource
from repro.workloads.synthetic import SharingProfile

ALGORITHMS = ["lazy", "eager", "exact", "superset_hybrid", "criticality"]
#: (topology kind, CMPs).
TOPOLOGIES = [("ring", 8), ("hier_ring", 16)]
THINK_SCALES = [10.0, 1.0, 0.3]
#: (mode id, link occupancy, serialize snoop ports).
MODES = [
    ("occ600-serial", 600, True),
    ("occ600", 600, False),
    ("serial", 0, True),
]

CORES_PER_CMP = 2
ACCESSES_PER_CORE = 30
WARMUP = 0.3


def contended_machine(algorithm, topology, num_cmps, occupancy, serialize):
    machine = default_machine(
        algorithm=algorithm,
        cores_per_cmp=CORES_PER_CMP,
        num_cmps=num_cmps,
    )
    return machine.replace(
        ring=dataclasses.replace(
            machine.ring,
            link_occupancy=occupancy,
            serialize_snoop_port=serialize,
        ),
        topology=dataclasses.replace(machine.topology, kind=topology),
    )


def contended_source(num_cmps, think_scale, accesses=ACCESSES_PER_CORE):
    return SyntheticSource(
        SharingProfile(
            name="contended",
            num_cores=num_cmps * CORES_PER_CMP,
            cores_per_cmp=CORES_PER_CMP,
            accesses_per_core=accesses,
            p_shared=0.5,
            shared_lines=64,
            private_lines=64,
            write_fraction_shared=0.3,
            prewarm_fraction=0.3,
            think_mean=12.0,
            think_scale=think_scale,
            seed=11,
        )
    )


def run_both(machine, algorithm, source, warmup=WARMUP):
    """Run ``machine`` on both cores; returns (object system, object
    result, soa machine, soa result)."""
    system = RingMultiprocessor(
        machine, build_algorithm(algorithm), source, warmup_fraction=warmup
    )
    soa = SoaRingMultiprocessor(
        machine, build_algorithm(algorithm), source, warmup_fraction=warmup
    )
    return system, system.run(), soa, soa.run()


def assert_identical(system, expected, soa, actual):
    assert actual.summary() == expected.summary()
    assert actual.exec_time == expected.exec_time
    assert actual.events == expected.events
    assert soa.link_busy_cycles == system.walker.link_busy_cycles
    assert soa.port_wait_cycles == system.walker.port_wait_cycles


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m[0])
@pytest.mark.parametrize("think_scale", THINK_SCALES, ids=lambda s: "t%g" % s)
@pytest.mark.parametrize(
    "topology", TOPOLOGIES, ids=lambda t: "%s%d" % t
)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_contended_cell_matches_object(algorithm, topology, think_scale, mode):
    kind, num_cmps = topology
    _, occupancy, serialize = mode
    machine = contended_machine(
        algorithm, kind, num_cmps, occupancy, serialize
    )
    assert_identical(
        *run_both(machine, algorithm, contended_source(num_cmps, think_scale))
    )


def test_contention_actually_contends():
    """The matrix is not vacuous: its heaviest cells queue on links and
    ports, retry squashed transactions and park MSHR waiters."""
    machine = contended_machine("criticality", "hier_ring", 16, 600, True)
    system, result, soa, _ = run_both(
        machine, "criticality", contended_source(16, 0.3)
    )
    assert soa.link_busy_cycles > 0
    assert soa.port_wait_cycles > 0
    assert result.stats.retries > 0
    assert result.stats.mshr_queued > 0


#: Cycles of fake backlog injected at the warmup reset.
POISON_HORIZON = 500_000


def test_soa_warmup_reset_discards_contention_backlog(monkeypatch):
    """Port of ``tests/integration/test_warmup_contention.py`` to the
    soa core: bookings made during warmup must not delay measured
    traffic.  The fused loop's tables are run-local, so the poison is
    injected by wrapping the loop's ``LatencyHistogram`` constructor -
    the warmup reset builds a fresh histogram right before it clears
    the link and port tables - and filling every table slot reachable
    from the calling frame's closure cells."""
    machine = contended_machine("eager", "ring", 8, 30, True)
    source = contended_source(8, 1.0, accesses=200)
    clean = SoaRingMultiprocessor(
        machine, build_algorithm("eager"), source, warmup_fraction=0.4
    ).run()

    real_histogram = soa_module.LatencyHistogram
    poisoned = []

    def poisoning_histogram():
        frame = sys._getframe(1)
        if frame.f_code.co_name == "end_warmup":
            tables = [
                frame.f_locals[name] for name in ("link_free", "port_free")
            ]
            for table in tables:
                table[:] = [POISON_HORIZON] * len(table)
            poisoned.append(tables)
        return real_histogram()

    monkeypatch.setattr(soa_module, "LatencyHistogram", poisoning_histogram)
    result = SoaRingMultiprocessor(
        machine, build_algorithm("eager"), source, warmup_fraction=0.4
    ).run()
    assert poisoned, "the warmup reset never ran"
    assert result.exec_time == clean.exec_time
    assert result.summary() == clean.summary()
