"""Unit tests for the snoop-topology layer (ring, hier_ring, torus)."""

from __future__ import annotations

import pytest

from repro.config import (
    DataNetworkConfig,
    MachineConfig,
    RingConfig,
    TopologyConfig,
)
from repro.registry import REGISTRY, UnknownComponentError
from repro.ring.topology import (
    HierRingTopology,
    RingTopology,
    SnoopTopology,
    TorusTopology,
    WalkRow,
    build_topology,
    ring_successors,
)


def ring(n=8, rings=2):
    return RingTopology(n, RingConfig(num_rings=rings))


def test_next_node_wraps():
    topology = ring(4)
    assert topology.next_node(0) == 1
    assert topology.next_node(3) == 0


def test_ring_distance():
    topology = ring(8)
    assert topology.ring_distance(0, 1) == 1
    assert topology.ring_distance(1, 0) == 7
    assert topology.ring_distance(5, 5) == 0
    assert topology.ring_distance(6, 2) == 4


def test_walk_order_visits_everyone_once():
    topology = ring(8)
    order = topology.walk_order(3)
    assert order == [4, 5, 6, 7, 0, 1, 2]
    assert len(set(order)) == 7
    assert 3 not in order


def test_ring_of_interleaves_addresses():
    topology = ring(8, rings=2)
    assert topology.ring_of(10) == 0
    assert topology.ring_of(11) == 1


def test_ring_requires_two_nodes():
    with pytest.raises(ValueError):
        RingTopology(1, RingConfig())


def test_ring_node_range_checked():
    topology = ring(4)
    with pytest.raises(ValueError):
        topology.next_node(4)
    with pytest.raises(ValueError):
        topology.ring_distance(0, -1)


def torus(n=8, shape=(4, 2)):
    return TorusTopology(n, DataNetworkConfig(torus_shape=shape))


def test_torus_coordinates():
    topology = torus()
    assert topology.coordinates(0) == (0, 0)
    assert topology.coordinates(1) == (0, 1)
    assert topology.coordinates(2) == (1, 0)
    assert topology.coordinates(7) == (3, 1)


def test_torus_hop_distance_wraps_around():
    topology = torus()
    assert topology.hop_distance(0, 0) == 0
    assert topology.hop_distance(0, 1) == 1
    # Rows 0 and 3 are adjacent through the wrap-around link.
    assert topology.hop_distance(0, 6) == 1
    assert topology.hop_distance(0, 7) == 2


def test_torus_distance_symmetric():
    topology = torus()
    for a in range(8):
        for b in range(8):
            assert topology.hop_distance(a, b) == topology.hop_distance(b, a)


def test_torus_transfer_latency():
    config = DataNetworkConfig(
        per_hop_latency=20, overhead=40, torus_shape=(4, 2)
    )
    topology = TorusTopology(8, config)
    assert topology.transfer_latency(0, 0) == 40
    assert topology.transfer_latency(0, 1) == 60
    assert topology.transfer_latency(0, 7) == 80


def test_torus_too_small_rejected():
    with pytest.raises(ValueError):
        TorusTopology(9, DataNetworkConfig(torus_shape=(4, 2)))


def test_torus_node_range_checked():
    topology = torus()
    with pytest.raises(ValueError):
        topology.coordinates(8)


# ----------------------------------------------------------------------
# SnoopTopology interface and table export


def test_ring_successors_is_the_canonical_cycle():
    assert ring_successors(4) == [1, 2, 3, 0]


def test_export_tables_ring():
    topology = ring(4)
    rows = topology.export_tables()
    hop = RingConfig().hop_latency
    assert rows[0] == WalkRow(
        successor=[1, 2, 3, 0],
        predecessor=[3, 0, 1, 2],
        entry_latency=[hop] * 4,
        ring_age=[4, 1, 2, 3],
    )
    # A static cycle: every requester walks the same successors, and
    # only the ring age (counted from the requester) differs.
    assert all(row.successor == [1, 2, 3, 0] for row in rows)
    assert rows[2].ring_age == [2, 3, 4, 1]


def test_route_default_follows_successors():
    topology = ring(4)
    assert topology.route(2, ()) == 3
    assert topology.route(2, (3, 0)) == 1


def test_entry_latency_is_predecessor_outbound():
    topology = HierRingTopology(
        8,
        RingConfig(),
        TopologyConfig(kind="hier_ring", local_rings=2,
                       local_hop_latency=10, global_hop_latency=25),
        DataNetworkConfig(torus_shape=(4, 2)),
    )
    for row in topology.export_tables():
        for node in range(8):
            assert row.entry_latency[row.successor[node]] == (
                topology.segment_latency(node)
            )
            assert row.predecessor[row.successor[node]] == node


class _SkipTwoTopology(SnoopTopology):
    """Path-dependent routing: hops by 2, so successors() is not one
    Hamiltonian cycle on even node counts."""

    kind = "skip2"

    def next_node(self, node):
        self._check(node)
        return (node + 2) % self.num_nodes

    def segment_latency(self, node):
        return 5

    def transfer_latency(self, src, dst):
        return 40


class _DynamicTopology(SnoopTopology):
    """No static successor cycle: routing depends on the path, so each
    requester's walk unrolls into its own row."""

    kind = "dynamic"

    def route(self, requester, path_so_far):
        # Visit odd nodes first, then even ones - genuinely
        # path-dependent, not expressible as one successor table.
        remaining = [
            node
            for node in range(self.num_nodes)
            if node != requester and node not in path_so_far
        ]
        odd = [node for node in remaining if node % 2]
        if odd:
            return odd[0]
        if remaining:
            return remaining[0]
        return requester

    def segment_latency(self, node):
        # Uneven segments, so a walk that charges the wrong segment
        # shows in the timing.
        return 5 + 4 * (node % 3)

    def transfer_latency(self, src, dst):
        return 40


def test_export_tables_rejects_non_hamiltonian_cycle():
    with pytest.raises(ValueError):
        _SkipTwoTopology(8).export_tables()


def test_export_tables_unrolls_a_path_dependent_walk():
    topology = _DynamicTopology(8)
    rows = topology.export_tables()
    # Odd nodes first, then even ones, skipping the requester.
    assert topology.walk_order(0) == [1, 3, 5, 7, 2, 4, 6]
    assert topology.walk_order(3) == [1, 5, 7, 0, 2, 4, 6]
    row = rows[3]
    assert row.successor[3] == 1
    assert row.successor[1] == 5
    assert row.successor[6] == 3
    assert row.predecessor[5] == 1
    assert row.predecessor[1] == 3
    assert row.ring_age == [4, 1, 5, 8, 6, 2, 7, 3]
    # The segment into a node is the one leaving its predecessor.
    assert row.entry_latency[5] == topology.segment_latency(1)
    assert row.entry_latency[3] == topology.segment_latency(6)
    # Node 1 forwards to different nodes on different walks.
    assert rows[0].successor[1] == 3
    assert rows[3].successor[1] == 5


class _StrayTopology(_DynamicTopology):
    """Visits everyone, then does not head home."""

    def route(self, requester, path_so_far):
        if len(path_so_far) == self.num_nodes - 1:
            return path_so_far[0]
        return super().route(requester, path_so_far)


def test_export_tables_rejects_a_walk_that_does_not_return_home():
    with pytest.raises(ValueError, match="return home"):
        _StrayTopology(8).export_tables()


# ----------------------------------------------------------------------
# HierRingTopology


def hier(num_nodes=16, local_rings=4, local_hop=10, global_hop=25):
    return HierRingTopology(
        num_nodes,
        RingConfig(),
        TopologyConfig(kind="hier_ring", local_rings=local_rings,
                       local_hop_latency=local_hop,
                       global_hop_latency=global_hop),
        DataNetworkConfig(torus_shape=(4, 4)),
    )


def test_hier_structure():
    topology = hier()
    assert topology.ring_size == 4
    assert topology.bridges() == [0, 4, 8, 12]
    assert topology.local_ring_of(6) == 1
    assert topology.bridge_of(6) == 4
    assert topology.is_bridge(8)
    assert not topology.is_bridge(9)


def test_hier_segment_latency_charges_global_on_block_crossing():
    topology = hier()
    # Inside a block: local hop only.
    assert topology.segment_latency(0) == 10
    assert topology.segment_latency(2) == 10
    # Last node of each block hands off across the global ring.
    assert topology.segment_latency(3) == 35
    assert topology.segment_latency(15) == 35


def test_hier_zero_latency_inherits_ring_hop():
    topology = hier(local_hop=0, global_hop=0)
    hop = RingConfig().hop_latency
    assert topology.segment_latency(1) == hop
    assert topology.segment_latency(3) == 2 * hop


def test_hier_transfer_latency_uses_bridge_paths():
    config = DataNetworkConfig(
        per_hop_latency=20, overhead=40, torus_shape=(4, 4)
    )
    topology = HierRingTopology(
        16, RingConfig(),
        TopologyConfig(kind="hier_ring", local_rings=4),
        config,
    )
    assert topology.transfer_latency(1, 1) == 40
    # Same local ring: one hop around the bidirectional ring.
    assert topology.transfer_latency(1, 2) == 60
    # 1 -> bridge 0 (1 hop), global 0 -> 1 (1 hop), bridge 4 -> 6
    # (2 hops): 4 hops total.
    assert topology.transfer_latency(1, 6) == 4 * 20 + 40


def test_hier_validation():
    with pytest.raises(ValueError):
        hier(num_nodes=9, local_rings=4)  # not divisible
    with pytest.raises(ValueError):
        hier(num_nodes=4, local_rings=1)  # needs >= 2 local rings
    with pytest.raises(ValueError):
        hier(num_nodes=4, local_rings=4)  # local rings of 1


# ----------------------------------------------------------------------
# Registry resolution and build_topology


def test_topology_registry_builtins_and_aliases():
    names = REGISTRY.names("topology")
    assert "ring" in names and "hier_ring" in names
    assert REGISTRY.canonical("topology", "flat") == "ring"
    assert REGISTRY.canonical("topology", "hierarchical") == "hier_ring"
    assert REGISTRY.canonical("topology", "hier") == "hier_ring"
    with pytest.raises(UnknownComponentError):
        REGISTRY.canonical("topology", "moebius")


def test_build_topology_from_machine_config():
    machine = MachineConfig()
    topology = build_topology(machine)
    assert isinstance(topology, RingTopology)
    assert topology.num_nodes == 8
    assert topology.transfer_latency(0, 1) == (
        machine.data_network.per_hop_latency
        + machine.data_network.overhead
    )

    hier_machine = MachineConfig(
        num_cmps=16,
        cores_per_cmp=1,
        topology=TopologyConfig(kind="hier_ring"),
    )
    built = build_topology(hier_machine)
    assert isinstance(built, HierRingTopology)
    assert built.local_rings == 4
    assert built.num_nodes == 16


# ----------------------------------------------------------------------
# Path-dependent topologies: both cores walk the per-requester rows, so
# soa runs them with no fallback and equals the object core.


def test_dynamic_topology_runs_on_soa_and_equals_object():
    from repro.harness.experiments import run_experiment

    REGISTRY.register(
        "topology",
        "oddfirst",
        lambda config: _DynamicTopology(config.num_cmps),
    )
    try:
        results = {
            core: run_experiment(
                "lazy",
                "specjbb",
                accesses_per_core=60,
                topology="oddfirst",
                core=core,
            )
            for core in ("object", "soa")
        }
    finally:
        REGISTRY.unregister("topology", "oddfirst")
    assert results["soa"].core == "soa"
    assert results["object"].core == "object"
    # The walk completed: every read transaction crossed all 8 nodes
    # of its requester's row and came home.
    assert results["soa"].stats.read_ring_transactions > 0
    assert results["soa"].summary() == results["object"].summary()
    assert results["soa"].events == results["object"].events
