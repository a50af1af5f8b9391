"""Generated contended configurations: soa equals object, bit for bit.

The golden contention cells pin hand-picked points; this property
draws the machine instead - CMP count, flat ring or hier_ring with its
local-ring split, embedded-ring count, link occupancy in [0, 900],
snoop-port serialization, injection rate (think scale) and policy -
and requires the soa core to reproduce the object core's ``summary()``,
``exec_time``, event count and occupancy counters exactly.

Each draw also runs traced, with ``check_invariants``, on both cores:
they must emit identical JSONL lines, and the soa trace must audit
clean under the policy-aware auditor (the auditor the trace's
metadata describes, as ``flexsnoop trace audit`` builds it).

Tier-1 runs a fast profile; set ``FLEXSNOOP_PROPERTY_EXAMPLES`` (e.g.
to 200) for a long run.
"""

from __future__ import annotations

import dataclasses
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TraceConfig, default_machine
from repro.core.algorithms import build_algorithm
from repro.obs.audit import auditor_for
from repro.obs.jsonl import encode_event
from repro.obs.runner import walk_meta
from repro.obs.trace import InMemorySink
from repro.sim.soa import SoaRingMultiprocessor
from repro.sim.system import RingMultiprocessor
from repro.workloads.source import SyntheticSource
from repro.workloads.synthetic import SharingProfile

#: Examples per run: a fast tier-1 default, raised for long runs.
EXAMPLES = int(os.environ.get("FLEXSNOOP_PROPERTY_EXAMPLES", "12"))

ALGORITHMS = [
    "lazy",
    "eager",
    "oracle",
    "subset",
    "superset_con",
    "superset_agg",
    "exact",
    "superset_hybrid",
    "criticality",
]


@st.composite
def contended_scenarios(draw):
    topology = draw(st.sampled_from(["ring", "hier_ring"]))
    if topology == "hier_ring":
        local_rings = draw(st.integers(2, 4))
        num_cmps = local_rings * draw(st.integers(2, 4))
    else:
        local_rings = 2
        num_cmps = draw(st.integers(2, 8))
    cores_per_cmp = draw(st.sampled_from([1, 2]))
    profile = SharingProfile(
        name="contended-prop",
        num_cores=num_cmps * cores_per_cmp,
        cores_per_cmp=cores_per_cmp,
        accesses_per_core=draw(st.integers(15, 40)),
        p_shared=draw(st.floats(0.2, 0.7)),
        shared_lines=draw(st.integers(8, 64)),
        private_lines=32,
        write_fraction_shared=draw(st.floats(0.0, 0.5)),
        prewarm_fraction=draw(st.floats(0.0, 0.5)),
        think_mean=12.0,
        think_scale=draw(st.sampled_from([0.1, 0.3, 1.0, 3.0, 10.0])),
        seed=draw(st.integers(0, 2**16)),
    )
    algorithm = draw(st.sampled_from(ALGORITHMS))
    machine = default_machine(
        algorithm=algorithm,
        cores_per_cmp=cores_per_cmp,
        num_cmps=num_cmps,
    )
    machine = machine.replace(
        ring=dataclasses.replace(
            machine.ring,
            num_rings=draw(st.integers(1, 3)),
            link_occupancy=draw(st.integers(0, 900)),
            serialize_snoop_port=draw(st.booleans()),
        ),
        topology=dataclasses.replace(
            machine.topology, kind=topology, local_rings=local_rings
        ),
    )
    warmup = draw(st.sampled_from([0.0, 0.3]))
    return machine, algorithm, profile, warmup


@given(contended_scenarios())
@settings(max_examples=EXAMPLES, deadline=None)
def test_soa_matches_object_under_contention(scenario):
    machine, algorithm, profile, warmup = scenario
    source = SyntheticSource(profile)
    system = RingMultiprocessor(
        machine, build_algorithm(algorithm), source, warmup_fraction=warmup
    )
    expected = system.run()
    soa = SoaRingMultiprocessor(
        machine, build_algorithm(algorithm), source, warmup_fraction=warmup
    )
    actual = soa.run()
    assert actual.summary() == expected.summary()
    assert actual.exec_time == expected.exec_time
    assert actual.events == expected.events
    assert soa.link_busy_cycles == system.walker.link_busy_cycles
    assert soa.port_wait_cycles == system.walker.port_wait_cycles

    traced = machine.replace(
        tracing=TraceConfig(enabled=True), check_invariants=True
    )
    events = {}
    for core in (RingMultiprocessor, SoaRingMultiprocessor):
        sink = InMemorySink()
        result = core(
            traced,
            build_algorithm(algorithm),
            source,
            warmup_fraction=warmup,
            trace_sink=sink,
        ).run()
        assert result.summary() == expected.summary()
        events[core] = sink.events
    lines = [encode_event(event) for event in events[SoaRingMultiprocessor]]
    assert lines == [encode_event(event) for event in events[RingMultiprocessor]]
    meta = {
        "algorithm": build_algorithm(algorithm).name,
        "num_cmps": machine.num_cmps,
        **walk_meta(machine),
    }
    auditor = auditor_for(meta)
    for event in events[SoaRingMultiprocessor]:
        auditor.feed(event)
    violations = auditor.finish(events[SoaRingMultiprocessor])
    assert violations == [], "\n".join(str(v) for v in violations[:5])
