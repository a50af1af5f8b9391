"""Property-based tests for the snoop-topology layer.

Three structural invariants every topology must satisfy, whatever its
shape, because the walker, the fused cores and the trace auditor all
rely on them:

* the snoop walk from any requester visits every *other* node exactly
  once and the successor cycle returns home (Hamiltonian cycle);
* ``ring_distance`` agrees with counting ``next_node`` steps;
* the exported walk rows are consistent with the per-node interface.

Plus hier_ring-specific ones: bridge paths on the data network are
cycle-free (finite shortest-path hop counts with symmetric distances)
and segment timing charges the global hop exactly once per block.

And generated path-dependent topologies: a test-local ``route`` gives
each requester its own drawn visiting order.  Its rows validate, both
cores run it to equal summaries, event counts and byte-identical
traces, and the trace audits clean against the rows; a ``route`` that
revisits a node fails at export.  Tier-1 runs a short profile; set
``FLEXSNOOP_PROPERTY_EXAMPLES`` (e.g. to 200) for a long run.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    DataNetworkConfig,
    RingConfig,
    TopologyConfig,
    TraceConfig,
    default_machine,
)
from repro.core.algorithms import build_algorithm
from repro.obs.audit import auditor_for
from repro.obs.jsonl import encode_event
from repro.obs.runner import walk_meta
from repro.obs.trace import InMemorySink
from repro.registry import REGISTRY
from repro.ring.topology import (
    HierRingTopology,
    RingTopology,
    SnoopTopology,
    ring_successors,
)
from repro.sim.soa import SoaRingMultiprocessor
from repro.sim.system import RingMultiprocessor
from repro.workloads.source import SyntheticSource
from repro.workloads.synthetic import SharingProfile
from tests.property.test_contention_properties import ALGORITHMS

#: Generated simulations per run: a fast tier-1 default, raised for
#: long runs.
EXAMPLES = int(os.environ.get("FLEXSNOOP_PROPERTY_EXAMPLES", "8"))

ring_sizes = st.integers(min_value=2, max_value=33)
hier_shapes = st.tuples(
    st.integers(min_value=2, max_value=6),  # local rings
    st.integers(min_value=2, max_value=6),  # CMPs per local ring
)
latencies = st.integers(min_value=1, max_value=100)


def _ring(num_nodes: int) -> RingTopology:
    return RingTopology(
        num_nodes, RingConfig(), data_network=DataNetworkConfig(
            torus_shape=(num_nodes, 1)
        )
    )


def _hier(local_rings: int, ring_size: int,
          local_hop: int = 0, global_hop: int = 0) -> HierRingTopology:
    num_nodes = local_rings * ring_size
    return HierRingTopology(
        num_nodes,
        RingConfig(),
        TopologyConfig(
            kind="hier_ring",
            local_rings=local_rings,
            local_hop_latency=local_hop,
            global_hop_latency=global_hop,
        ),
        DataNetworkConfig(torus_shape=(num_nodes, 1)),
    )


# ----------------------------------------------------------------------
# Walk-order permutation property (both builtins)


@settings(max_examples=60)
@given(ring_sizes, st.data())
def test_ring_walk_visits_every_other_node_once(num_nodes, data):
    topology = _ring(num_nodes)
    requester = data.draw(st.integers(0, num_nodes - 1))
    order = topology.walk_order(requester)
    assert len(order) == num_nodes - 1
    assert requester not in order
    assert sorted(order) == sorted(
        set(range(num_nodes)) - {requester}
    )
    # The walk ends one segment short of home.
    assert topology.next_node(order[-1]) == requester


@settings(max_examples=60)
@given(hier_shapes, st.data())
def test_hier_walk_visits_every_other_node_once(shape, data):
    local_rings, ring_size = shape
    topology = _hier(local_rings, ring_size)
    requester = data.draw(st.integers(0, topology.num_nodes - 1))
    order = topology.walk_order(requester)
    assert len(order) == topology.num_nodes - 1
    assert sorted(order) == sorted(
        set(range(topology.num_nodes)) - {requester}
    )
    assert topology.next_node(order[-1]) == requester


# ----------------------------------------------------------------------
# ring_distance consistency with repeated next_node


@settings(max_examples=60)
@given(ring_sizes, st.data())
def test_ring_distance_counts_next_node_steps(num_nodes, data):
    topology = _ring(num_nodes)
    src = data.draw(st.integers(0, num_nodes - 1))
    dst = data.draw(st.integers(0, num_nodes - 1))
    distance = topology.ring_distance(src, dst)
    node = src
    for _ in range(distance):
        node = topology.next_node(node)
    assert node == dst
    assert 0 <= distance < num_nodes


@settings(max_examples=60)
@given(hier_shapes, st.data())
def test_hier_distance_counts_next_node_steps(shape, data):
    topology = _hier(*shape)
    src = data.draw(st.integers(0, topology.num_nodes - 1))
    dst = data.draw(st.integers(0, topology.num_nodes - 1))
    distance = topology.ring_distance(src, dst)
    node = src
    for _ in range(distance):
        node = topology.next_node(node)
    assert node == dst


# ----------------------------------------------------------------------
# Exported tables agree with the per-node interface


def assert_rows_walk(topology: SnoopTopology, rows) -> None:
    """Each row walks its requester's order: every other node once,
    then home, with predecessors, entry latencies and ring ages that
    agree with the successors."""
    n = topology.num_nodes
    assert len(rows) == n
    for requester, row in enumerate(rows):
        walk, node = [], requester
        for _ in range(n):
            node = row.successor[node]
            walk.append(node)
        assert walk[:-1] == topology.walk_order(requester)
        assert walk[-1] == requester
        for age, node in enumerate(walk, start=1):
            upstream = row.predecessor[node]
            assert row.successor[upstream] == node
            # The latency entering a node is the latency leaving its
            # predecessor - the relation the reply path relies on.
            assert row.entry_latency[node] == topology.segment_latency(
                upstream
            )
            assert row.ring_age[node] == age
        assert all(latency > 0 for latency in row.entry_latency)


@settings(max_examples=40)
@given(st.one_of(ring_sizes.map(_ring),
                 hier_shapes.map(lambda s: _hier(*s))))
def test_export_tables_consistent(topology):
    rows = topology.export_tables()
    n = topology.num_nodes
    for row in rows:
        # A static cycle: every requester walks the same successors.
        assert row.successor == [topology.next_node(i) for i in range(n)]
        assert row.successor == ring_successors(n)  # builtins: id order
    assert_rows_walk(topology, rows)


# ----------------------------------------------------------------------
# hier_ring: bridge structure, segment timing, cycle-free data paths


@settings(max_examples=60)
@given(hier_shapes, latencies, latencies)
def test_hier_segment_timing_charges_global_once_per_block(
    shape, local_hop, global_hop
):
    local_rings, ring_size = shape
    topology = _hier(local_rings, ring_size, local_hop, global_hop)
    latencies_out = [
        topology.segment_latency(node) for node in range(topology.num_nodes)
    ]
    crossing = [lat for lat in latencies_out if lat != local_hop]
    # Exactly one crossing segment per local ring, each charged the
    # local hand-off plus one global hop.
    assert len(crossing) == local_rings or local_hop == global_hop + local_hop
    total = sum(latencies_out)
    expected = (
        topology.num_nodes * local_hop + local_rings * global_hop
    )
    assert total == expected


@settings(max_examples=60)
@given(hier_shapes, st.data())
def test_hier_bridge_paths_cycle_free(shape, data):
    """Data-network shortest paths never revisit a segment: the hop
    count is bounded by half of each traversed ring, and the implied
    bridge itinerary (src ring -> global -> dst ring) is acyclic."""
    topology = _hier(*shape)
    src = data.draw(st.integers(0, topology.num_nodes - 1))
    dst = data.draw(st.integers(0, topology.num_nodes - 1))
    hops = topology.data_hop_distance(src, dst)
    assert hops == topology.data_hop_distance(dst, src)
    assert (hops == 0) == (src == dst)
    bound = (
        topology.ring_size // 2  # src local ring, shortest way
        + topology.local_rings // 2  # global ring, shortest way
        + topology.ring_size // 2  # dst local ring
    )
    assert hops <= bound
    if topology.local_ring_of(src) == topology.local_ring_of(dst):
        assert hops <= topology.ring_size // 2


@settings(max_examples=40)
@given(hier_shapes)
def test_hier_bridges_one_per_local_ring(shape):
    topology = _hier(*shape)
    bridges = topology.bridges()
    assert len(bridges) == topology.local_rings
    assert len(set(topology.local_ring_of(b) for b in bridges)) == (
        topology.local_rings
    )
    for node in range(topology.num_nodes):
        assert topology.is_bridge(node) == (node in bridges)
        assert topology.bridge_of(node) in bridges


# ----------------------------------------------------------------------
# Generated path-dependent topologies on both cores


class _DrawnTopology(SnoopTopology):
    """Each requester visits the other nodes in its own drawn order.

    ``route`` reads only its arguments (the requester and how far the
    walk has got), as the topology seam requires.
    """

    kind = "drawn"

    def __init__(
        self, orders: Sequence[Sequence[int]], latencies: Sequence[int]
    ) -> None:
        super().__init__(len(orders), num_rings=2)
        self._orders = orders
        self._latencies = latencies

    def route(self, requester: int, path_so_far: Sequence[int]) -> int:
        order = self._orders[requester]
        if len(path_so_far) < len(order):
            return order[len(path_so_far)]
        return requester

    def segment_latency(self, node: int) -> int:
        return self._latencies[node]

    def transfer_latency(self, src: int, dst: int) -> int:
        return 40 + 20 * abs(src - dst)


@st.composite
def drawn_topologies(draw, min_cmps: int = 2) -> _DrawnTopology:
    num_cmps = draw(st.integers(min_cmps, 8))
    orders: List[List[int]] = [
        draw(st.permutations([n for n in range(num_cmps) if n != r]))
        for r in range(num_cmps)
    ]
    latencies = draw(
        st.lists(st.integers(1, 60), min_size=num_cmps, max_size=num_cmps)
    )
    return _DrawnTopology(orders, latencies)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    topology=drawn_topologies(),
    algorithm=st.sampled_from(ALGORITHMS),
    contention=st.sampled_from([(0, False), (300, True), (600, False)]),
    cores_per_cmp=st.integers(1, 2),
    warmup=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
)
def test_drawn_walks_run_alike_on_both_cores(
    topology, algorithm, contention, cores_per_cmp, warmup, seed
):
    assert_rows_walk(topology, topology.export_tables())
    num_cmps = topology.num_nodes
    occupancy, serialize = contention
    machine = default_machine(
        algorithm=algorithm, num_cmps=num_cmps, cores_per_cmp=cores_per_cmp
    )
    machine = machine.replace(
        ring=dataclasses.replace(
            machine.ring,
            link_occupancy=occupancy,
            serialize_snoop_port=serialize,
        ),
        topology=dataclasses.replace(machine.topology, kind="drawn"),
        tracing=TraceConfig(enabled=True),
        check_invariants=True,
    )
    source = SyntheticSource(
        SharingProfile(
            name="drawn",
            num_cores=num_cmps * cores_per_cmp,
            cores_per_cmp=cores_per_cmp,
            accesses_per_core=30,
            p_shared=0.5,
            shared_lines=32,
            private_lines=32,
            write_fraction_shared=0.3,
            prewarm_fraction=0.3,
            think_mean=12.0,
            seed=seed,
        )
    )
    REGISTRY.register("topology", "drawn", lambda config: topology)
    try:
        runs = {}
        for core in (RingMultiprocessor, SoaRingMultiprocessor):
            sink = InMemorySink()
            result = core(
                machine,
                build_algorithm(algorithm),
                source,
                warmup_fraction=warmup,
                trace_sink=sink,
            ).run()
            runs[core] = result, sink.events
        meta = {
            "algorithm": build_algorithm(algorithm).name,
            "num_cmps": num_cmps,
            **walk_meta(machine),
        }
    finally:
        REGISTRY.unregister("topology", "drawn")
    expected, object_events = runs[RingMultiprocessor]
    actual, events = runs[SoaRingMultiprocessor]
    assert actual.summary() == expected.summary()
    assert actual.events == expected.events
    lines = [encode_event(event) for event in events]
    assert lines == [encode_event(event) for event in object_events]
    violations = auditor_for(meta).audit(events)
    assert violations == [], "\n".join(str(v) for v in violations[:5])


@settings(max_examples=40, deadline=None)
@given(topology=drawn_topologies(min_cmps=3), data=st.data())
def test_a_revisiting_route_fails_at_export(topology, data):
    num_cmps = topology.num_nodes
    requester = data.draw(st.integers(0, num_cmps - 1))
    order = list(topology._orders[requester])
    position = data.draw(st.integers(1, len(order) - 1))
    # Revisit an earlier stop, or the requester itself.
    order[position] = data.draw(
        st.sampled_from(order[:position] + [requester])
    )
    orders = list(topology._orders)
    orders[requester] = order
    with pytest.raises(ValueError, match="exactly once"):
        _DrawnTopology(orders, topology._latencies).export_tables()
