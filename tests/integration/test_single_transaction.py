"""Integration tests driving single, hand-constructed transactions
through the full system and checking the exact cycle-level timing of
each algorithm's ring walk against closed-form expectations.

The machine is unloaded (one access in the whole trace), so latencies
are exactly the Table 1 / Table 3 formulas.
"""

from __future__ import annotations

import pytest

from repro.config import CacheConfig, default_machine
from repro.coherence.states import LineState
from repro.core.algorithms import build_algorithm
from repro.sim.system import RingMultiprocessor
from repro.workloads.trace import Access, WorkloadTrace

HOP = 39
SNOOP = 55
N = 8
# Homed at node 6 (LINE % N == 6): remote for requester core 0, so the
# memory-path tests exercise the remote/prefetch latencies.
LINE = 0x1236


def single_read_workload(core: int = 0, address: int = LINE):
    traces = [[] for _ in range(N)]
    traces[core] = [Access(address=address, is_write=False, think_time=0)]
    return WorkloadTrace(name="single", cores_per_cmp=1, traces=traces)


def build_system(algorithm_name: str, predictor: str = None,
                 prefetch: bool = True):
    machine = default_machine(
        algorithm=algorithm_name,
        predictor=predictor,
        cores_per_cmp=1,
        cache=CacheConfig(num_lines=256, associativity=8),
        track_versions=True,
        check_invariants=True,
    )
    if not prefetch:
        import dataclasses

        machine = machine.replace(
            memory=dataclasses.replace(machine.memory,
                                       prefetch_on_snoop=False)
        )
    algorithm = build_algorithm(algorithm_name)
    system = RingMultiprocessor(machine, algorithm,
                                single_read_workload())
    return system


def plant_supplier(system, node_id: int, state=LineState.E,
                   address: int = LINE, version: int = 0):
    """Install a supplier copy before the run starts."""
    system.nodes[node_id].caches[0].fill(address, state, version)


def data_latency(system, src: int, dst: int) -> int:
    return system.topology.transfer_latency(src, dst)


# ----------------------------------------------------------------------
# Data arrival timing (= read miss service time on the unloaded ring)


def read_latency(system) -> int:
    result = system.run()
    assert result.stats.read_ring_transactions == 1
    assert result.stats.reads_supplied_by_cache == 1
    return result.stats.mean_read_miss_latency


@pytest.mark.parametrize("distance", [1, 3, 7])
def test_lazy_latency_snoops_at_every_hop(distance):
    system = build_system("lazy")
    plant_supplier(system, distance)
    expected = distance * (HOP + SNOOP) + data_latency(system, distance, 0)
    assert read_latency(system) == expected


@pytest.mark.parametrize("distance", [1, 4, 7])
def test_eager_latency_one_snoop_time(distance):
    system = build_system("eager")
    plant_supplier(system, distance)
    expected = distance * HOP + SNOOP + data_latency(system, distance, 0)
    assert read_latency(system) == expected


@pytest.mark.parametrize("distance", [2, 5])
def test_oracle_latency_matches_eager(distance):
    system = build_system("oracle")
    plant_supplier(system, distance)
    expected = distance * HOP + SNOOP + data_latency(system, distance, 0)
    assert read_latency(system) == expected


@pytest.mark.parametrize("distance", [2, 6])
def test_subset_latency_with_trained_predictor(distance):
    system = build_system("subset")
    plant_supplier(system, distance)  # fill trains the predictor
    pred = 2  # predictor access latency on the request path
    expected = (
        distance * (HOP + pred) + SNOOP + data_latency(system, distance, 0)
    )
    assert read_latency(system) == expected


@pytest.mark.parametrize("distance", [2, 6])
def test_superset_con_latency_no_false_positives(distance):
    system = build_system("superset_con")
    plant_supplier(system, distance)
    pred = 2
    expected = (
        distance * (HOP + pred) + SNOOP + data_latency(system, distance, 0)
    )
    assert read_latency(system) == expected


@pytest.mark.parametrize("distance", [2, 6])
def test_superset_agg_latency(distance):
    system = build_system("superset_agg")
    plant_supplier(system, distance)
    pred = 2
    expected = (
        distance * (HOP + pred) + SNOOP + data_latency(system, distance, 0)
    )
    assert read_latency(system) == expected


# ----------------------------------------------------------------------
# Snoop counts on the unloaded walk


def run_and_count(system):
    result = system.run()
    return result.stats


@pytest.mark.parametrize("distance", [1, 4, 7])
def test_lazy_snoops_up_to_supplier(distance):
    system = build_system("lazy")
    plant_supplier(system, distance)
    stats = run_and_count(system)
    assert stats.read_snoops == distance


@pytest.mark.parametrize("distance", [1, 4])
def test_eager_snoops_everyone(distance):
    system = build_system("eager")
    plant_supplier(system, distance)
    stats = run_and_count(system)
    assert stats.read_snoops == N - 1


@pytest.mark.parametrize("distance", [1, 4, 7])
def test_oracle_snoops_only_supplier(distance):
    system = build_system("oracle")
    plant_supplier(system, distance)
    stats = run_and_count(system)
    assert stats.read_snoops == 1


def test_oracle_no_snoops_when_memory_supplies():
    system = build_system("oracle")
    stats = run_and_count(system)
    assert stats.read_snoops == 0
    assert stats.reads_supplied_by_memory == 1


@pytest.mark.parametrize("distance", [3, 7])
def test_subset_true_positive_stops_snooping_downstream(distance):
    system = build_system("subset")
    plant_supplier(system, distance)
    stats = run_and_count(system)
    # Forward-Then-Snoop at every node up to the supplier, where the
    # true positive recombines and the rest only forward.
    assert stats.read_snoops == distance


def test_superset_con_snoops_only_supplier_without_fp():
    system = build_system("superset_con")
    plant_supplier(system, 5)
    stats = run_and_count(system)
    assert stats.read_snoops == 1


def test_exact_snoops_only_supplier():
    system = build_system("exact")
    plant_supplier(system, 5)
    stats = run_and_count(system)
    assert stats.read_snoops == 1


# ----------------------------------------------------------------------
# Ring message crossings


@pytest.mark.parametrize(
    "algorithm,expected_crossings",
    [
        ("lazy", N),  # one combined message all the way around
        ("superset_con", N),
        ("exact", N),
        ("oracle", N),
        ("eager", 2 * N - 1),  # request + reply from the first node on
    ],
)
def test_crossings_with_supplier_midway(algorithm, expected_crossings):
    system = build_system(algorithm)
    plant_supplier(system, 4)
    stats = run_and_count(system)
    assert stats.read_ring_crossings == expected_crossings


def test_subset_crossings_recombine_at_supplier():
    distance = 4
    system = build_system("subset")
    plant_supplier(system, distance)
    stats = run_and_count(system)
    # Split at node 1, trailing reply discarded at the supplier:
    # request N crossings + reply (distance - 1) crossings.
    assert stats.read_ring_crossings == N + distance - 1


def test_superset_agg_crossings_split_at_supplier():
    distance = 4
    system = build_system("superset_agg")
    plant_supplier(system, distance)
    stats = run_and_count(system)
    # Combined until the supplier (the only positive prediction),
    # split there: request N + reply (N - distance).
    assert stats.read_ring_crossings == N + (N - distance)


# ----------------------------------------------------------------------
# Memory path and the prefetch heuristic


def test_memory_read_latency_uses_prefetch():
    system = build_system("lazy")
    result = system.run()
    stats = result.stats
    assert stats.reads_supplied_by_memory == 1
    assert stats.reads_prefetched == 1
    ring_time = N * HOP + (N - 1) * SNOOP
    assert stats.mean_read_miss_latency == ring_time + 312


def test_memory_read_latency_without_prefetch():
    system = build_system("lazy", prefetch=False)
    result = system.run()
    ring_time = N * HOP + (N - 1) * SNOOP
    assert result.stats.mean_read_miss_latency == ring_time + 710


def test_local_memory_latency():
    # Choose a line homed at the requester (address % 8 == 0).
    address = 0x1000
    traces = [[] for _ in range(N)]
    traces[0] = [Access(address=address, is_write=False, think_time=0)]
    workload = WorkloadTrace(name="single", cores_per_cmp=1, traces=traces)
    machine = default_machine(
        algorithm="lazy",
        cores_per_cmp=1,
        cache=CacheConfig(num_lines=256, associativity=8),
    )
    system = RingMultiprocessor(machine, build_algorithm("lazy"), workload)
    result = system.run()
    ring_time = N * HOP + (N - 1) * SNOOP
    assert result.stats.mean_read_miss_latency == ring_time + 350


# ----------------------------------------------------------------------
# Protocol state after the transaction


@pytest.mark.parametrize(
    "initial,expected_supplier",
    [
        (LineState.E, LineState.SG),
        (LineState.SG, LineState.SG),
        (LineState.D, LineState.T),
        (LineState.T, LineState.T),
    ],
)
def test_supplier_state_transition_on_read(initial, expected_supplier):
    system = build_system("lazy")
    plant_supplier(system, 3, state=initial)
    system.run()
    assert system.nodes[3].caches[0].state_of(LINE) is expected_supplier
    # The requester becomes its CMP's local master.
    assert system.nodes[0].caches[0].state_of(LINE) is LineState.SL


def test_memory_read_fills_exclusive():
    system = build_system("lazy")
    system.run()
    assert system.nodes[0].caches[0].state_of(LINE) is LineState.E


def test_memory_read_fills_global_master_if_copies_exist():
    system = build_system("lazy")
    # A plain-S copy elsewhere (no supplier) - e.g. the old master was
    # evicted.
    system.nodes[5].caches[0].fill(LINE, LineState.S)
    system.run()
    assert system.nodes[0].caches[0].state_of(LINE) is LineState.SG
