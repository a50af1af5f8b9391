#!/usr/bin/env python
"""Custom topology: register a new snoop-interconnect shape.

The simulator's walk order and segment timing come from a
registry-selected :class:`~repro.ring.topology.SnoopTopology` (kind
``topology``), so a new interconnect is a plugin, not a fork.  This
example builds a **chiplet ring**: CMPs are packaged in pairs, the
ring segment between two CMPs on one package is fast, and the segment
that crosses packages is slow - the same "hierarchy in the segment
timing" idea as the builtin ``hier_ring``, with a different floorplan.

Both simulation cores (object, soa) walk the rows that
``SnoopTopology.export_tables`` unrolls once per run, one visiting
order per requester.  The chiplet ring is one static Hamiltonian
cycle, so all of its rows name the same successors.  The second half
shows a path-dependent topology: ``route`` gives each requester its
own order, and both cores run it the same way.  The one rule is that
``route`` reads only its arguments, so the rows can be built before
the run.

A third-party package registers the same factory with an entry point:

    [project.entry-points."flexsnoop.topologies"]
    chiplet_ring = "my_pkg.topologies:make_chiplet_ring"

Run:  python examples/custom_topology.py
"""

from __future__ import annotations

from repro.config import DataNetworkConfig
from repro.harness.experiments import run_experiment
from repro.registry import REGISTRY
from repro.ring.topology import SnoopTopology


class ChipletRing(SnoopTopology):
    """Flat unidirectional ring over CMPs packaged in pairs.

    Segment leaving an even node stays on-package (fast); the segment
    leaving an odd node crosses to the next package (slow).  Data
    replies take the shortest way around the same ring.
    """

    kind = "chiplet_ring"

    ON_PACKAGE_HOP = 15
    OFF_PACKAGE_HOP = 60

    def __init__(self, num_nodes: int, data: DataNetworkConfig) -> None:
        if num_nodes % 2:
            raise ValueError("chiplet_ring packages CMPs in pairs")
        super().__init__(num_nodes)
        self._data = data

    def next_node(self, node: int) -> int:
        self._check(node)
        # Id-order cycle, like the builtins (the lint test reserves the
        # modulo spelling for repro.ring.topology, so step explicitly).
        return node + 1 if node + 1 < self.num_nodes else 0

    def segment_latency(self, node: int) -> int:
        self._check(node)
        return self.OFF_PACKAGE_HOP if node % 2 else self.ON_PACKAGE_HOP

    def transfer_latency(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        downstream = self.ring_distance(src, dst)
        hops = min(downstream, self.num_nodes - downstream)
        return hops * self._data.per_hop_latency + self._data.overhead


def make_chiplet_ring(config) -> ChipletRing:
    """Topology factory: called with the full MachineConfig."""
    return ChipletRing(config.num_cmps, config.data_network)


class OddFirstTopology(SnoopTopology):
    """Path-dependent walk: visit odd nodes first, then even ones.

    There is no single successor cycle (node 7's next hop depends on
    who asked), so each requester's walk unrolls into its own row.
    """

    kind = "odd_first"

    def route(self, requester, path_so_far):
        remaining = [
            node
            for node in range(self.num_nodes)
            if node != requester and node not in path_so_far
        ]
        odd = [node for node in remaining if node % 2]
        if odd:
            return odd[0]
        return remaining[0] if remaining else requester

    def segment_latency(self, node):
        return 39

    def transfer_latency(self, src, dst):
        return 80


def main() -> None:
    REGISTRY.register("topology", "chiplet_ring", make_chiplet_ring)
    REGISTRY.register(
        "topology", "odd_first",
        lambda config: OddFirstTopology(config.num_cmps),
    )

    print("ring vs chiplet_ring (splash2, scale 400):")
    header = "%-12s | %10s %10s | %10s %10s" % (
        "algorithm", "ring", "chiplet", "ring", "chiplet"
    )
    print("%-12s | %21s | %21s" % ("", "exec time", "snoops/req"))
    print(header)
    print("-" * len(header))
    for algorithm in ("lazy", "eager", "superset_con"):
        flat = run_experiment(algorithm, "splash2", accesses_per_core=400)
        chiplet = run_experiment(
            algorithm, "splash2", accesses_per_core=400,
            topology="chiplet_ring",
        )
        print(
            "%-12s | %10d %10d | %10.2f %10.2f"
            % (
                algorithm,
                flat.exec_time,
                chiplet.exec_time,
                flat.stats.snoops_per_read_request,
                chiplet.stats.snoops_per_read_request,
            )
        )

    print()
    print("both custom topologies run on the fused core, equal to object:")
    for topology in ("chiplet_ring", "odd_first"):
        soa, obj = (
            run_experiment(
                "lazy", "splash2", accesses_per_core=400,
                topology=topology, core=core,
            )
            for core in ("soa", "object")
        )
        # A refusal would fall back to object and compare it with itself.
        assert soa.core == "soa", "soa declined %s" % topology
        assert soa.summary() == obj.summary(), topology
        print(
            "  %-12s core=soa matches core=object (exec time %d)"
            % (topology, soa.exec_time)
        )


if __name__ == "__main__":
    main()
