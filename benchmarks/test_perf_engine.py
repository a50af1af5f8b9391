"""Performance microbenchmarks of the simulator substrate itself.

Unlike the figure benches (which run once and assert shapes), these
use pytest-benchmark conventionally to keep an eye on simulator
throughput: the event engine and the end-to-end events-per-second of
a small system run.
"""

from __future__ import annotations

import time

from repro.config import CacheConfig, default_machine
from repro.core.algorithms import build_algorithm
from repro.harness.parallel import RunSpec, run_specs
from repro.sim.engine import EventEngine
from repro.sim.system import RingMultiprocessor
from repro.workloads.synthetic import SharingProfile, generate_workload


def test_engine_throughput(benchmark):
    """Schedule + drain 10k events."""

    def run():
        engine = EventEngine()
        count = [0]

        def tick():
            count[0] += 1

        for i in range(10_000):
            engine.call_after(i % 97, tick)
        engine.run()
        return count[0]

    processed = benchmark(run)
    assert processed == 10_000


def test_engine_nested_scheduling(benchmark):
    """Event chains: each callback schedules the next."""

    def run():
        engine = EventEngine()
        remaining = [5_000]

        def chain():
            if remaining[0] > 0:
                remaining[0] -= 1
                engine.call_after(3, chain)

        engine.call_after(0, chain)
        engine.run()
        return engine.events_processed

    assert benchmark(run) == 5_001


def test_matrix_end_to_end_events_per_second(benchmark):
    """End-to-end simulation throughput of a small harness matrix.

    The recorded ``events_per_second`` is the trajectory metric future
    PRs compare against (see also benchmarks/test_perf_matrix.py for
    the serial-vs-parallel wall-time comparison).
    """
    specs = [
        RunSpec(algorithm, "specjbb", accesses_per_core=150,
                warmup_fraction=0.35)
        for algorithm in ("lazy", "eager", "superset_agg")
    ]

    def run():
        start = time.perf_counter()
        results = run_specs(specs, jobs=1)
        elapsed = time.perf_counter() - start
        return sum(result.events for result in results), elapsed

    events, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert events > 1_000
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_second"] = round(events / elapsed)


def _small_workload():
    return generate_workload(
        SharingProfile(
            name="perf",
            num_cores=8,
            cores_per_cmp=1,
            accesses_per_core=300,
            p_shared=0.4,
            p_cold=0.1,
            shared_lines=256,
            private_lines=256,
            seed=3,
        )
    )


def test_system_throughput(benchmark):
    """End-to-end simulation rate of a small 8-CMP run."""

    def run():
        machine = default_machine(
            algorithm="superset_agg",
            cores_per_cmp=1,
            cache=CacheConfig(num_lines=512, associativity=8),
        )
        system = RingMultiprocessor(
            machine, build_algorithm("superset_agg"), _small_workload()
        )
        return system.run().events

    events = benchmark(run)
    assert events > 1_000
