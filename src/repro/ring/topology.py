"""Snoop-interconnect topologies and the torus data network.

The machine embeds one or more unidirectional snoop rings in its
physical network.  Snoop messages walk the topology's successor cycle;
data messages use the topology's data-network shortest paths (a 2D
torus for the flat ring, hierarchical bidirectional rings for
``hier_ring``).  Requests are mapped to rings by line address,
balancing the load (Section 2.2).

Topology is a registry component (kind ``"topology"``, entry-point
group ``flexsnoop.topologies``).  A topology factory is called with
the full :class:`~repro.config.MachineConfig` and must return a
:class:`SnoopTopology`.  Every layer of the simulator - the
:class:`~repro.sim.walker.RingWalker`, the
:class:`~repro.sim.datapath.DataPathModel`, the
:class:`~repro.sim.transactions.TransactionManager`, and the soa
core - consumes this interface instead of assuming "(i+1) mod N";
ring-order arithmetic lives in this package only (enforced by a lint
test).

The performance contract: the simulation cores never call
:meth:`SnoopTopology.route` per hop.  :meth:`SnoopTopology.export_tables`
unrolls the topology once per run into one :class:`WalkRow` per
requester, and both cores (and the trace auditor) index those rows in
the hot loop.  A static successor cycle is the case where every row
names the same successors; a path-dependent ``route`` gives each
requester its own.  ``route`` must be a pure function of its
arguments: routing that reads live machine state (adaptive or
deflection routing) cannot be unrolled, and is outside the seam.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

from repro.config import DataNetworkConfig, RingConfig, TopologyConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import MachineConfig


def ring_successors(num_nodes: int) -> List[int]:
    """Successor table of the flat unidirectional ring: node ``i``
    forwards to ``(i + 1) mod N``.  The one place this arithmetic is
    written down; everything else consumes the table."""
    return [(node + 1) % num_nodes for node in range(num_nodes)]


class WalkRow(NamedTuple):
    """One requester's snoop walk, indexed by node.

    ``successor[n]`` is the node the request visits after ``n`` (the
    requester's own entry names the first stop, and the last stop's
    entry names the requester); ``predecessor[n]`` is the node before
    ``n``; ``entry_latency[n]`` is the cycles of the segment into
    ``n``, the :meth:`~SnoopTopology.segment_latency` of its
    predecessor; ``ring_age[n]`` is the segments the request has
    crossed on reaching ``n`` (``num_nodes`` back home).
    """

    successor: List[int]
    predecessor: List[int]
    entry_latency: List[int]
    ring_age: List[int]


class SnoopTopology:
    """Interface every snoop topology implements.

    A topology owns three things:

    * **Walk order** - :meth:`route` is the definitional seam: given
      the requester and the path walked so far, it names the next node
      the snoop request visits.  It must be a pure function of those
      two arguments, so :meth:`walk_order` can unroll it into one
      fixed visiting order per requester.  The default follows the
      static successor cycle :meth:`next_node` names.
    * **Segment timing** - :meth:`segment_latency` gives the cycles a
      message spends on the segment *leaving* a node.  The flat ring
      is uniform; ``hier_ring`` charges extra on segments that cross
      between local rings.
    * **Data network** - :meth:`transfer_latency` gives the latency of
      a data (non-snoop) transfer between two CMPs.

    Subclasses must implement :meth:`segment_latency`,
    :meth:`transfer_latency`, and either :meth:`next_node` (a static
    cycle) or :meth:`route` (a path-dependent walk); everything else
    has a derived default.
    """

    #: Registry kind name of this topology (stamped into trace meta).
    kind: str = "topology"

    def __init__(self, num_nodes: int, num_rings: int = 1) -> None:
        if num_nodes < 2:
            raise ValueError("a snoop topology needs at least 2 nodes")
        if num_rings < 1:
            raise ValueError("need at least 1 embedded ring")
        self.num_nodes = num_nodes
        self.num_rings = num_rings

    # ------------------------------------------------------------------
    # Walk order

    def next_node(self, node: int) -> int:
        """Downstream neighbour of ``node`` on the snoop walk."""
        raise NotImplementedError

    def route(self, requester: int, path_so_far: Sequence[int]) -> int:
        """Next node a snoop request visits.

        ``path_so_far`` is the sequence of nodes already visited (not
        including the requester).  The default follows the static
        successor cycle; a topology may override this with
        path-dependent routing, as long as the answer depends on the
        arguments alone.
        """
        self._check(requester)
        tail = path_so_far[-1] if path_so_far else requester
        return self.next_node(tail)

    def walk_order(self, requester: int) -> List[int]:
        """Nodes a snoop request visits, in order, excluding the
        requester itself (the request finally returns home)."""
        self._check(requester)
        path: List[int] = []
        for _ in range(self.num_nodes - 1):
            path.append(self.route(requester, path))
        return path

    def ring_distance(self, src: int, dst: int) -> int:
        """Number of walk segments from ``src`` to ``dst`` going
        downstream; 0 when src == dst."""
        self._check(src)
        self._check(dst)
        node, distance = src, 0
        while node != dst:
            node = self.next_node(node)
            distance += 1
            if distance > self.num_nodes:
                raise ValueError(
                    "no walk from node %d to node %d" % (src, dst)
                )
        return distance

    def ring_of(self, address: int) -> int:
        """Ring index a line address maps to (address interleaving)."""
        return address % self.num_rings

    # ------------------------------------------------------------------
    # Physical links (contention modeling)

    def segment_links(self, node: int) -> Tuple[Tuple[str, int], ...]:
        """Physical links a message occupies crossing the segment
        leaving ``node``, as ``(scope, link_id)`` pairs.

        ``scope`` is ``"ring"`` for a link that is replicated once per
        embedded snoop ring (the normal case: each embedded ring has
        its own wires), or ``"shared"`` for a link that is one physical
        resource regardless of which embedded ring the message belongs
        to (e.g. the single global ring of ``hier_ring``).  The walker
        keys its link reservations on these descriptors, so a segment
        that is physically several links serializes on each of them.
        """
        self._check(node)
        return (("ring", node),)

    def link_counts(self) -> Tuple[int, int]:
        """``(per_ring_links, shared_links)`` distinct physical link
        counts, for occupancy/utilization denominators.  Total physical
        links = ``per_ring_links * num_rings + shared_links``."""
        return (self.num_nodes, 0)

    # ------------------------------------------------------------------
    # Segment timing and table export

    def segment_latency(self, node: int) -> int:
        """Cycles a snoop message spends on the segment leaving
        ``node``, whichever node it leads to."""
        raise NotImplementedError

    def export_tables(self) -> List[WalkRow]:
        """One :class:`WalkRow` per requester, indexed by requester:
        the tables both cores walk and the trace auditor checks hops
        against, built once per run from :meth:`walk_order` and
        :meth:`segment_latency`.

        Raises ``ValueError`` unless every requester's walk visits
        every other node exactly once and then returns home - the
        structural invariant the walk and the per-segment audit rules
        rely on.
        """
        n = self.num_nodes
        latency = [self.segment_latency(node) for node in range(n)]
        rows: List[WalkRow] = []
        for requester in range(n):
            order = self.walk_order(requester)
            if sorted(order) != [
                node for node in range(n) if node != requester
            ]:
                raise ValueError(
                    "topology %r walk from node %d does not visit every "
                    "other node of %d exactly once: %r"
                    % (self.kind, requester, n, order)
                )
            if self.route(requester, order) != requester:
                raise ValueError(
                    "topology %r walk from node %d does not return home"
                    % (self.kind, requester)
                )
            successor = [0] * n
            predecessor = [0] * n
            entry_latency = [0] * n
            ring_age = [0] * n
            stops = [requester] + order
            for age, (upstream, node) in enumerate(
                zip(stops, order + [requester]), start=1
            ):
                successor[upstream] = node
                predecessor[node] = upstream
                entry_latency[node] = latency[upstream]
                ring_age[node] = age
            rows.append(
                WalkRow(successor, predecessor, entry_latency, ring_age)
            )
        return rows

    # ------------------------------------------------------------------
    # Data network

    def transfer_latency(self, src: int, dst: int) -> int:
        """Latency of a data (non-snoop) transfer from src to dst."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                "node %d out of range [0, %d)" % (node, self.num_nodes)
            )


class RingTopology(SnoopTopology):
    """Unidirectional ring over ``num_nodes`` CMP gateways.

    Node ids are 0..num_nodes-1 and the ring order follows ids:
    node i forwards to node (i+1) mod N.  Data messages use the 2D
    torus when a :class:`~repro.config.DataNetworkConfig` is supplied
    (the registry factory always supplies one).
    """

    kind = "ring"

    def __init__(
        self,
        num_nodes: int,
        config: RingConfig,
        data_network: "DataNetworkConfig | None" = None,
    ) -> None:
        super().__init__(num_nodes, num_rings=config.num_rings)
        self.config = config
        self._succ = ring_successors(num_nodes)
        self.torus = (
            TorusTopology(num_nodes, data_network)
            if data_network is not None
            else None
        )

    def next_node(self, node: int) -> int:
        """Downstream neighbour of ``node`` on the ring."""
        self._check(node)
        return self._succ[node]

    def ring_distance(self, src: int, dst: int) -> int:
        """Number of ring segments from ``src`` to ``dst`` going
        downstream; 0 when src == dst."""
        self._check(src)
        self._check(dst)
        return (dst - src) % self.num_nodes

    def walk_order(self, requester: int) -> List[int]:
        self._check(requester)
        order: List[int] = []
        node = requester
        for _ in range(self.num_nodes - 1):
            node = self._succ[node]
            order.append(node)
        return order

    def segment_latency(self, node: int) -> int:
        self._check(node)
        return self.config.hop_latency

    def transfer_latency(self, src: int, dst: int) -> int:
        if self.torus is None:
            raise NotImplementedError(
                "RingTopology built without a data network"
            )
        return self.torus.transfer_latency(src, dst)


class HierRingTopology(SnoopTopology):
    """Two-level hierarchy: K local rings of M CMPs joined by a global
    ring through one bridge node per local ring.

    Node ids are laid out in consecutive blocks of M: local ring ``r``
    owns nodes ``r*M .. r*M+M-1`` and its bridge sits at position 0 of
    the block.  The snoop walk threads every local ring through the
    bridges into a single Hamiltonian cycle - the successor of node
    ``i`` is still node ``(i+1) mod N`` in this numbering - so the
    hierarchy is expressed purely in segment *timing*: a segment
    inside a local ring costs ``local_hop_latency``, while the segment
    leaving the last node of a block crosses to the next local ring
    over the global ring and costs ``local_hop_latency +
    global_hop_latency`` (hand-off to the bridge plus one global-ring
    hop).  A latency of 0 in :class:`~repro.config.TopologyConfig`
    inherits ``RingConfig.hop_latency``.

    Data (non-snoop) transfers use bidirectional hierarchical rings:
    shortest way around the source's local ring to its bridge, the
    shortest way around the global ring, then the target's local ring
    from its bridge - ``hops * per_hop_latency + overhead`` with the
    torus' timing constants.
    """

    kind = "hier_ring"

    def __init__(
        self,
        num_nodes: int,
        ring: RingConfig,
        topology: TopologyConfig,
        data_network: DataNetworkConfig,
    ) -> None:
        super().__init__(num_nodes, num_rings=ring.num_rings)
        local_rings = topology.local_rings
        if local_rings < 2:
            raise ValueError("hier_ring needs at least 2 local rings")
        if num_nodes % local_rings != 0:
            raise ValueError(
                "hier_ring needs num_cmps (%d) divisible by "
                "local_rings (%d)" % (num_nodes, local_rings)
            )
        ring_size = num_nodes // local_rings
        if ring_size < 2:
            raise ValueError(
                "hier_ring needs at least 2 CMPs per local ring "
                "(%d CMPs / %d rings)" % (num_nodes, local_rings)
            )
        self.config = ring
        self.topology_config = topology
        self.data_network = data_network
        self.local_rings = local_rings
        self.ring_size = ring_size
        self.local_hop = topology.local_hop_latency or ring.hop_latency
        self.global_hop = topology.global_hop_latency or ring.hop_latency
        self._succ = ring_successors(num_nodes)

    # ------------------------------------------------------------------
    # Structure helpers

    def local_ring_of(self, node: int) -> int:
        """Index of the local ring ``node`` belongs to."""
        self._check(node)
        return node // self.ring_size

    def bridge_of(self, node: int) -> int:
        """The bridge node of ``node``'s local ring (block position 0)."""
        self._check(node)
        return (node // self.ring_size) * self.ring_size

    def bridges(self) -> List[int]:
        """All bridge nodes, one per local ring, in global-ring order."""
        return [r * self.ring_size for r in range(self.local_rings)]

    def is_bridge(self, node: int) -> bool:
        self._check(node)
        return node % self.ring_size == 0

    # ------------------------------------------------------------------
    # Walk order and timing

    def next_node(self, node: int) -> int:
        self._check(node)
        return self._succ[node]

    def ring_distance(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        return (dst - src) % self.num_nodes

    def walk_order(self, requester: int) -> List[int]:
        self._check(requester)
        order: List[int] = []
        node = requester
        for _ in range(self.num_nodes - 1):
            node = self._succ[node]
            order.append(node)
        return order

    def segment_latency(self, node: int) -> int:
        self._check(node)
        if (node + 1) % self.ring_size == 0:
            # Last node of its block: the segment hands the message to
            # the next local ring across one global-ring hop.
            return self.local_hop + self.global_hop
        return self.local_hop

    def segment_links(self, node: int) -> Tuple[Tuple[str, int], ...]:
        """Block-crossing segments occupy two distinct physical links:
        the local hand-off link (one per embedded ring, like every
        local segment) plus one global-ring link.  The global ring is a
        single physical resource - there is one bridge per local ring,
        not one per embedded ring - so its links carry ``"shared"``
        scope and messages of *different* embedded rings serialize on
        them."""
        self._check(node)
        if (node + 1) % self.ring_size == 0:
            return (("ring", node), ("shared", self.local_ring_of(node)))
        return (("ring", node),)

    def link_counts(self) -> Tuple[int, int]:
        return (self.num_nodes, self.local_rings)

    # ------------------------------------------------------------------
    # Data network

    def _local_hops(self, position_a: int, position_b: int) -> int:
        """Shortest-way hop count between two positions of one
        (bidirectional) local ring of ``ring_size`` nodes."""
        direct = abs(position_a - position_b)
        return min(direct, self.ring_size - direct)

    def _global_hops(self, ring_a: int, ring_b: int) -> int:
        direct = abs(ring_a - ring_b)
        return min(direct, self.local_rings - direct)

    def data_hop_distance(self, src: int, dst: int) -> int:
        """Shortest-path hop count over the hierarchical data rings."""
        self._check(src)
        self._check(dst)
        src_ring, src_pos = divmod(src, self.ring_size)
        dst_ring, dst_pos = divmod(dst, self.ring_size)
        if src_ring == dst_ring:
            return self._local_hops(src_pos, dst_pos)
        return (
            self._local_hops(src_pos, 0)  # to the source bridge
            + self._global_hops(src_ring, dst_ring)
            + self._local_hops(0, dst_pos)  # from the target bridge
        )

    def transfer_latency(self, src: int, dst: int) -> int:
        if src == dst:
            return self.data_network.overhead
        hops = self.data_hop_distance(src, dst)
        return hops * self.data_network.per_hop_latency + (
            self.data_network.overhead
        )


class TorusTopology:
    """2D torus used by data and memory messages.

    CMP ``i`` sits at coordinates ``(i // cols, i % cols)``.
    """

    def __init__(self, num_nodes: int, config: DataNetworkConfig) -> None:
        rows, cols = config.torus_shape
        if rows * cols < num_nodes:
            raise ValueError(
                "torus %dx%d cannot place %d nodes" % (rows, cols, num_nodes)
            )
        self.num_nodes = num_nodes
        self.rows = rows
        self.cols = cols
        self.config = config

    def coordinates(self, node: int) -> Tuple[int, int]:
        if not 0 <= node < self.num_nodes:
            raise ValueError("node %d out of range" % node)
        return node // self.cols, node % self.cols

    def hop_distance(self, src: int, dst: int) -> int:
        """Shortest-path hop count on the torus."""
        (r1, c1), (r2, c2) = self.coordinates(src), self.coordinates(dst)
        dr = abs(r1 - r2)
        dc = abs(c1 - c2)
        return min(dr, self.rows - dr) + min(dc, self.cols - dc)

    def transfer_latency(self, src: int, dst: int) -> int:
        """Latency of a data transfer from src to dst (cycles)."""
        if src == dst:
            return self.config.overhead
        hops = self.hop_distance(src, dst)
        return hops * self.config.per_hop_latency + self.config.overhead


# ----------------------------------------------------------------------
# Registry wiring


def _build_ring(config: "MachineConfig") -> RingTopology:
    return RingTopology(
        config.num_cmps, config.ring, data_network=config.data_network
    )


def _build_hier_ring(config: "MachineConfig") -> HierRingTopology:
    return HierRingTopology(
        config.num_cmps, config.ring, config.topology, config.data_network
    )


def build_topology(config: "MachineConfig") -> SnoopTopology:
    """Instantiate the topology named by ``config.topology.kind``
    through the component registry."""
    from repro.registry import REGISTRY

    topology = REGISTRY.create("topology", config.topology.kind, config)
    if topology.num_nodes != config.num_cmps:
        raise ValueError(
            "topology %r built %d nodes for a %d-CMP machine"
            % (config.topology.kind, topology.num_nodes, config.num_cmps)
        )
    return topology


def _register_topologies() -> None:
    from repro.registry import REGISTRY

    REGISTRY.register(
        "topology",
        "ring",
        _build_ring,
        aliases=("flat", "embedded_ring"),
        metadata={"description": "single unidirectional embedded ring"},
    )
    REGISTRY.register(
        "topology",
        "hier_ring",
        _build_hier_ring,
        aliases=("hierarchical", "hier"),
        metadata={
            "description": (
                "two-level hierarchy: local rings bridged by a global ring"
            )
        },
    )


_register_topologies()
