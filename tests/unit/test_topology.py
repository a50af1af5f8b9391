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
    TopologyTablesUnavailable,
    TorusTopology,
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
    succ, out_lat, in_lat = topology.export_tables()
    assert succ == [1, 2, 3, 0]
    assert out_lat == [RingConfig().hop_latency] * 4
    assert in_lat == out_lat


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
    succ, out_lat, in_lat = topology.export_tables()
    for node in range(8):
        assert in_lat[succ[node]] == out_lat[node]


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
    """No static successor table: routing depends on the path, so the
    topology declines ``successors()`` (the dynamic-topology contract)
    and only the object core's per-hop walker can drive it."""

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

    def successors(self):
        raise NotImplementedError("routing is path-dependent")

    def segment_latency(self, node):
        return 5

    def transfer_latency(self, src, dst):
        return 40


def test_export_tables_rejects_non_hamiltonian_cycle():
    with pytest.raises(ValueError):
        _SkipTwoTopology(8).export_tables()


def test_export_tables_unavailable_for_dynamic_topologies():
    with pytest.raises(TopologyTablesUnavailable):
        _DynamicTopology(8).export_tables()


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
# Dynamic topologies: object-core walker routes per hop; the fused
# soa core refuses through the SoaUnsupportedError envelope, and a run
# that requests soa falls back to the object core.


def test_dynamic_topology_object_core_runs_fused_cores_refuse():
    from repro.core.algorithms import build_algorithm
    from repro.harness.experiments import run_experiment
    from repro.sim.soa import SoaRingMultiprocessor, SoaUnsupportedError
    from repro.workloads.source import SyntheticSource
    from repro.workloads.synthetic import SharingProfile

    REGISTRY.register(
        "topology",
        "oddfirst",
        lambda config: _DynamicTopology(config.num_cmps),
    )
    try:
        # The refusal comes from the constructor, before the prewarm
        # image is built or any event runs.
        machine = MachineConfig(
            num_cmps=8,
            cores_per_cmp=1,
            topology=TopologyConfig(kind="oddfirst"),
        )
        source = SyntheticSource(
            SharingProfile(
                name="dynamic", num_cores=8, cores_per_cmp=1,
                accesses_per_core=10,
            )
        )
        with pytest.raises(SoaUnsupportedError, match="oddfirst"):
            SoaRingMultiprocessor(machine, build_algorithm("lazy"), source)
        result = run_experiment(
            "lazy",
            "specjbb",
            accesses_per_core=60,
            topology="oddfirst",
            core="object",
        )
        # The walk completed: every read transaction crossed all 8
        # nodes of the path-dependent cycle and came home.
        assert result.core == "object"
        assert result.exec_time > 0
        assert result.stats.read_ring_transactions > 0
        fallback = run_experiment(
            "lazy",
            "specjbb",
            accesses_per_core=60,
            topology="oddfirst",
            core="soa",
        )
        assert fallback.core == "object"
        assert fallback.summary() == result.summary()
    finally:
        REGISTRY.unregister("topology", "oddfirst")
