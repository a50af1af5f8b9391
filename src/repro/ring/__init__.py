"""Embedded-ring interconnect: topology, message types, node gateways."""

from repro.ring.messages import (
    MessageMode,
    SnoopKind,
    RingMessage,
)
from repro.ring.topology import (
    HierRingTopology,
    RingTopology,
    SnoopTopology,
    TorusTopology,
    WalkRow,
    build_topology,
    ring_successors,
)

__all__ = [
    "MessageMode",
    "SnoopKind",
    "RingMessage",
    "HierRingTopology",
    "RingTopology",
    "SnoopTopology",
    "TorusTopology",
    "WalkRow",
    "build_topology",
    "ring_successors",
]
