"""Deterministic unit tests for the contention models: link
reservation ordering, snoop-port queueing, physical-link descriptors,
the warmup reset, occupancy instrumentation, and the CLI's core
fallback (end-to-end: soa runs the contention knobs, and a flag soa
refuses falls back to object)."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.config import (
    DataNetworkConfig,
    RingConfig,
    TopologyConfig,
    TraceConfig,
    default_machine,
)
from repro.core.algorithms import build_algorithm
from repro.ring.topology import HierRingTopology, RingTopology
from repro.sim.system import RingMultiprocessor
from repro.workloads.synthetic import SharingProfile, generate_workload


def make_system(
    topology=None,
    num_cmps=8,
    link_occupancy=10,
    serialize=False,
    sample_window=0,
):
    profile = SharingProfile(
        name="contention-unit",
        num_cores=num_cmps,
        cores_per_cmp=1,
        accesses_per_core=40,
        p_shared=0.5,
        shared_lines=64,
        private_lines=64,
        think_mean=5.0,
        seed=3,
    )
    machine = default_machine(
        algorithm="lazy",
        cores_per_cmp=1,
        num_cmps=num_cmps,
        ring=RingConfig(
            link_occupancy=link_occupancy,
            serialize_snoop_port=serialize,
        ),
        tracing=TraceConfig(sample_window=sample_window),
    )
    if topology:
        machine = machine.replace(
            topology=dataclasses.replace(
                machine.topology, kind=topology
            )
        )
    return RingMultiprocessor(
        machine, build_algorithm("lazy"), generate_workload(profile)
    )


def txn_on_ring(ring):
    """Minimal transaction stub: ``_cross_link`` reads only the
    address, and ``ring_of(address) == address % num_rings``."""
    return SimpleNamespace(address=ring)


# ----------------------------------------------------------------------
# Link reservation ordering


def test_link_reservations_are_fifo():
    walker = make_system().walker
    txn = txn_on_ring(0)
    assert walker._cross_link(txn, 2, 100) == 100
    # Same link, same embedded ring: queued behind the first booking.
    assert walker._cross_link(txn, 2, 100) == 110
    # An earlier requested departure still queues behind both
    # outstanding reservations (bookings are granted in call order).
    assert walker._cross_link(txn, 2, 105) == 120
    # A different segment is a different physical link.
    assert walker._cross_link(txn, 3, 100) == 100


def test_embedded_rings_are_independent_on_flat_ring():
    walker = make_system().walker
    assert walker._cross_link(txn_on_ring(0), 2, 100) == 100
    assert walker._cross_link(txn_on_ring(1), 2, 100) == 100


def test_zero_occupancy_reserves_nothing():
    walker = make_system(link_occupancy=0).walker
    assert walker._cross_link(txn_on_ring(0), 2, 100) == 100
    assert walker._link_free == {}
    assert walker.link_busy_cycles == 0


def test_link_busy_cycles_accumulate_per_physical_link():
    walker = make_system(link_occupancy=10).walker
    walker._cross_link(txn_on_ring(0), 2, 100)
    assert walker.link_busy_cycles == 10
    # A hier_ring block crossing books two physical links per pass.
    hier = make_system(topology="hier_ring", num_cmps=16).walker
    hier._cross_link(txn_on_ring(0), 3, 100)
    assert hier.link_busy_cycles == 20


# ----------------------------------------------------------------------
# Snoop-port queueing


def test_snoop_port_queueing_delay():
    walker = make_system(serialize=True).walker
    snoop_time = walker.config.ring.snoop_time
    assert walker._reserve_snoop_port(3, 100) == 0
    # Port busy until 100 + snoop_time: the next snoop waits it out.
    assert walker._reserve_snoop_port(3, 100) == snoop_time
    third = walker._reserve_snoop_port(3, 120)
    assert third == 100 + 2 * snoop_time - 120
    assert walker.port_wait_cycles == snoop_time + third
    # Ports are per CMP.
    assert walker._reserve_snoop_port(4, 100) == 0


def test_snoop_port_backlog_measures_pending_service():
    walker = make_system(serialize=True).walker
    snoop_time = walker.config.ring.snoop_time
    walker._reserve_snoop_port(3, 100)
    walker._reserve_snoop_port(3, 100)
    # At t=100 node 3 has two snoops booked (2 x snoop_time of
    # service) and seven idle ports.
    assert walker.snoop_port_backlog(100) == pytest.approx(2.0 / 8.0)
    assert walker.snoop_port_backlog(100 + 2 * snoop_time) == 0.0


def test_serialization_off_has_no_port_state():
    walker = make_system(serialize=False).walker
    assert walker._reserve_snoop_port(3, 100) == 0
    assert walker.snoop_port_backlog(100) == 0.0


# ----------------------------------------------------------------------
# Physical-link descriptors vs the topology's exported tables


def test_flat_ring_segment_links_one_per_node():
    topo = RingTopology(8, RingConfig(), DataNetworkConfig())
    succ = topo.export_tables()[0].successor
    assert topo.link_counts() == (8, 0)
    for node in range(8):
        assert topo.segment_links(node) == (("ring", node),)
        assert succ[node] == (node + 1) % 8


def test_hier_segment_links_match_export_tables():
    topo = HierRingTopology(
        16, RingConfig(), TopologyConfig(kind="hier_ring"),
        DataNetworkConfig(),
    )
    succ = topo.export_tables()[0].successor
    per_ring, shared = topo.link_counts()
    assert (per_ring, shared) == (16, topo.local_rings)
    seen_ring_ids = set()
    seen_shared_ids = set()
    for node in range(16):
        links = topo.segment_links(node)
        ring_ids = [lid for scope, lid in links if scope == "ring"]
        shared_ids = [lid for scope, lid in links if scope == "shared"]
        # Every outbound segment owns exactly one per-ring link...
        assert ring_ids == [node]
        seen_ring_ids.update(ring_ids)
        # ...and crosses the shared global ring exactly when the
        # successor leaves the block.
        crosses = succ[node] // topo.ring_size != node // topo.ring_size
        assert bool(shared_ids) == crosses
        if shared_ids:
            assert shared_ids == [topo.local_ring_of(node)]
            seen_shared_ids.update(shared_ids)
    assert len(seen_ring_ids) == per_ring
    assert seen_shared_ids == set(range(shared))


def test_shared_global_link_serializes_across_embedded_rings():
    """The regression this keying fixes: a block-crossing hop uses
    one physical bridge onto the global ring, shared by *every*
    embedded ring, so crossings from different embedded rings must
    serialize - the old ``(ring, node)`` key let them overlap."""
    walker = make_system(topology="hier_ring", num_cmps=16).walker
    # Node 3 is the last node of block 0 (ring_size 4): its segment
    # is local hand-off + shared global link.
    assert walker._cross_link(txn_on_ring(0), 3, 100) == 100
    assert walker._cross_link(txn_on_ring(1), 3, 100) == 110
    # Inside a block the embedded rings stay independent.
    assert walker._cross_link(txn_on_ring(0), 1, 100) == 100
    assert walker._cross_link(txn_on_ring(1), 1, 100) == 100


# ----------------------------------------------------------------------
# Warmup reset


def test_warmup_end_resets_contention_state():
    walker = make_system(serialize=True).walker
    walker._cross_link(txn_on_ring(0), 2, 100)
    walker._reserve_snoop_port(3, 100)
    assert walker._link_free and any(walker._snoop_port_free)
    walker.on_warmup_end(walker.stats, walker.energy)
    assert walker._link_free == {}
    assert set(walker._snoop_port_free) == {0}
    assert len(walker._snoop_port_free) == 8
    # The cumulative instrumentation counters survive (samplers
    # difference them; the reset must not tear their window).
    assert walker.link_busy_cycles == 10


# ----------------------------------------------------------------------
# Timeline occupancy channels


def test_timeline_occupancy_channels_under_contention():
    system = make_system(
        link_occupancy=30, serialize=True, sample_window=2000
    )
    system.run()
    samples = system.timeline.samples
    assert samples
    assert any(s.link_util > 0.0 for s in samples)
    assert all(s.link_util >= 0.0 and s.port_queue >= 0.0
               for s in samples)


def test_timeline_occupancy_channels_zero_without_contention():
    system = make_system(
        link_occupancy=0, serialize=False, sample_window=2000
    )
    system.run()
    samples = system.timeline.samples
    assert samples
    assert all(s.link_util == 0.0 and s.port_queue == 0.0
               for s in samples)


def test_render_samples_includes_occupancy_columns():
    system = make_system(
        link_occupancy=30, serialize=True, sample_window=2000
    )
    system.run()
    rendered = system.timeline.render()
    header = rendered.splitlines()[0]
    assert "linkutil" in header
    assert "portq" in header


# ----------------------------------------------------------------------
# Core fallback end to end: the soa core runs the contention knobs; a
# flag outside its envelope (the presence filter) is refused at
# construction and that run falls back to the object core


@pytest.mark.parametrize("core", ["soa"])
def test_sweep_cli_falls_back_when_array_core_refuses(core, capsys):
    from repro.harness.cli import main

    rc = main([
        "sweep", "filter_write_snoops", "--values", "true",
        "--scale", "60", "--jobs", "1", "--no-cache",
        "--core", core, "--metric", "exec_time",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "falling back to core=object" in captured.err
    assert (
        "core=%s does not support: filter_write_snoops" % core
        in captured.err
    )
    assert "filter_write_snoops" in captured.out


def test_sweep_cli_soa_runs_contention_without_fallback(capsys):
    from repro.harness.cli import main

    rc = main([
        "sweep", "ring.link_occupancy", "--values", "30",
        "--scale", "60", "--jobs", "1", "--no-cache",
        "--core", "soa",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert "ring.link_occupancy" in captured.out
    assert "core=soa]" in captured.out
