"""Parallel fan-out of independent simulation points.

Every cell of the paper's evaluation matrix - and every point of a
parameter sweep - is an independent simulation: same code, different
(algorithm, workload, predictor, scale, seed, config) tuple.  This
module turns such a tuple into a picklable :class:`RunSpec`, executes
batches of them across a spawn-based :class:`ProcessPoolExecutor`, and
memoizes completed results through
:class:`~repro.harness.result_cache.ResultCache`.

Determinism contract: :func:`execute_spec` derives everything from the
spec (workload generation is seeded, the event engine is sequential),
so a parallel run returns *bit-identical* ``SimulationResult``s to a
serial run of the same specs, in the same order.  The integration
suite asserts this over the full main matrix.

The spawn start method is used deliberately: it is the only start
method that behaves identically across platforms and it guarantees
workers import a pristine ``repro`` rather than inheriting arbitrary
parent state through fork.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence

from repro.config import MachineConfig, default_machine
from repro.registry import REGISTRY
from repro.core.algorithms import build_algorithm
from repro.harness.result_cache import ResultCache, fingerprint_key
from repro.sim.cores import DEFAULT_CORE, build_core
from repro.sim.system import SimulationResult
from repro.workloads.source import WorkloadSource, resolve_source


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified simulation point.

    Frozen and built only from picklable values, so it can cross a
    process boundary and serve as a dictionary key.  ``config`` is an
    optional full machine override (used by sweeps, whose mutators run
    in the parent so that non-picklable mutator callables never need
    to travel); when present, ``predictor`` still replaces the
    config's predictor field, mirroring
    :func:`repro.harness.experiments.run_experiment`.
    """

    algorithm: str
    workload: str
    predictor: Optional[str] = None
    accesses_per_core: int = 0
    seed: int = 0
    warmup_fraction: float = 0.0
    config: Optional[MachineConfig] = None
    #: The requested simulation core (registry kind ``core``); a
    #: configuration it refuses runs on ``object`` (see
    #: :func:`repro.sim.cores.build_core`).  The cache key names the
    #: requested core; ``SimulationResult.core`` the one that ran.
    core: str = DEFAULT_CORE
    #: Snoop-topology override (registry kind ``topology``): ``None``
    #: leaves the machine config untouched (the default ``ring``);
    #: naming one replaces ``config.topology.kind``.  The topology
    #: travels inside the machine fingerprint.
    topology: Optional[str] = None
    #: Machine-span override: 0 = the workload source's own geometry;
    #: a nonzero value reshapes a synthetic workload across that many
    #: CMPs (e.g. a 16-CMP two-level hier_ring machine).
    num_cmps: int = 0
    #: Injection-pacing override: every synthetic think time is
    #: multiplied by this factor (the loaded-regime axis; see
    #: :attr:`repro.workloads.synthetic.SharingProfile.think_scale`).
    #: 1.0 leaves the workload untouched.
    think_scale: float = 1.0

    def resolve_config(
        self, cores_per_cmp: int, num_cmps: int = 8
    ) -> MachineConfig:
        """The machine this spec simulates.

        With no explicit ``config`` override the default machine is
        shaped to the workload source's geometry - builtin profiles
        populate the paper's 8 CMPs, but a replayed trace file brings
        its own CMP count.
        """
        if self.config is None:
            machine = default_machine(
                algorithm=self.algorithm,
                predictor=self.predictor,
                cores_per_cmp=cores_per_cmp,
                num_cmps=num_cmps,
            )
        else:
            machine = self.config
            if self.predictor is not None:
                machine = machine.replace(
                    predictor=REGISTRY.create(
                        "predictor", self.predictor
                    )
                )
        if self.topology is not None:
            machine = machine.replace(
                topology=dataclasses.replace(
                    machine.topology,
                    kind=REGISTRY.canonical("topology", self.topology),
                )
            )
        return machine

    def fingerprint(
        self,
        cores_per_cmp: int,
        source_descriptor: Optional[Dict[str, Any]] = None,
        num_cmps: int = 8,
    ) -> Dict[str, Any]:
        """JSON-able payload that uniquely identifies the result.

        When the workload source publishes a stable *descriptor* (the
        normal case: synthetic profiles embed their parameters, file
        replays embed the file's content hash), the payload is keyed
        on it - two spellings of the same input collide, and a file
        whose contents change gets a fresh key.  Sources without a
        descriptor fall back to the literal spec fields.
        """
        payload: Dict[str, Any] = {
            "algorithm": self.algorithm,
            "predictor": self.predictor,
            "warmup_fraction": self.warmup_fraction,
            # Tuples become lists; the key only compares to itself.
            "machine": dataclasses.asdict(
                self.resolve_config(cores_per_cmp, num_cmps)
            ),
            "core": REGISTRY.canonical("core", self.core),
        }
        if source_descriptor is not None:
            payload["source"] = source_descriptor
        else:
            payload["workload"] = self.workload
            payload["accesses_per_core"] = self.accesses_per_core
            payload["seed"] = self.seed
            payload["think_scale"] = self.think_scale
        return payload

    def cache_key(self) -> str:
        """Stable cache key; includes the resolved machine config.

        The workload source is resolved (to learn its geometry and
        descriptor) but never materialized, so key computation stays
        cheap on the warm-cache path - a file-backed source costs one
        header/hash scan, a synthetic source costs nothing.
        """
        source = _cached_source(
            self.workload, self.accesses_per_core, self.seed,
            self.num_cmps, self.think_scale,
        )
        return fingerprint_key(
            self.fingerprint(
                source.cores_per_cmp,
                source.descriptor(),
                source.num_cmps,
            )
        )


@lru_cache(maxsize=8)
def _cached_source(
    workload: str,
    accesses_per_core: int,
    seed: int,
    num_cmps: int = 0,
    think_scale: float = 1.0,
) -> WorkloadSource:
    """Resolve (and reuse) a workload source.

    Sources are immutable during simulation (cores consume private
    iterators; synthetic sources memoize their generated trace, file
    sources open a fresh handle per core stream), so one source can be
    shared by every run of the same (workload, scale, seed) within a
    process - a sweep over N values resolves its source once, and a
    7-algorithm matrix resolves one source per workload instead of
    seven.  Because only the *spec string* crosses the process
    boundary, parallel workers regenerate synthetic inputs or replay
    files locally instead of pickling materialized traces.
    """
    return resolve_source(
        workload,
        accesses_per_core=accesses_per_core,
        seed=seed,
        num_cmps=num_cmps,
        think_scale=think_scale,
    )


def execute_spec(spec: RunSpec) -> SimulationResult:
    """Run one simulation point to completion.

    Top-level and driven purely by ``spec`` so it can be shipped to a
    spawn worker.  This is the single execution path shared by the
    serial and parallel harnesses, which is what makes their results
    identical by construction.  The machine comes from
    :func:`~repro.sim.cores.build_core`, so a configuration the
    requested core refuses runs on the object core, once.
    """
    source = _cached_source(
        spec.workload, spec.accesses_per_core, spec.seed, spec.num_cmps,
        spec.think_scale,
    )
    machine = spec.resolve_config(source.cores_per_cmp, source.num_cmps)
    system = build_core(
        spec.core,
        machine,
        build_algorithm(spec.algorithm),
        source,
        warmup_fraction=spec.warmup_fraction,
    )
    return system.run()


def default_jobs() -> int:
    """Worker count used when the caller passes ``jobs=None``/``0``.

    Prefers the scheduling affinity mask over ``os.cpu_count()``:
    under cgroup CPU limits or ``taskset`` the process may be allowed
    far fewer CPUs than the machine has, and sizing the pool to the
    machine then just makes the workers fight over the allowed cores.
    """
    try:
        allowed = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        # Platforms without sched_getaffinity (macOS, Windows).
        allowed = os.cpu_count() or 1
    return max(allowed, 1)


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[SimulationResult]:
    """Run every spec, in order, with caching and process fan-out.

    Args:
        specs: simulation points; duplicates are simulated once.
        jobs: worker processes (None/0 = one per CPU; 1 = in-process
            serial execution, no pool).
        cache: optional persistent result cache consulted before and
            populated after execution.

    Returns results positionally aligned with ``specs``.
    """
    specs = list(specs)
    if jobs is None or jobs <= 0:
        jobs = default_jobs()

    results: Dict[RunSpec, SimulationResult] = {}
    missing: List[RunSpec] = []
    keys: Dict[RunSpec, str] = {}
    for spec in specs:
        if spec in results or spec in keys:
            continue
        if cache is not None:
            key = spec.cache_key()
            keys[spec] = key
            hit = cache.get(key)
            if hit is not None:
                results[spec] = hit
                continue
        else:
            keys[spec] = ""
        missing.append(spec)

    if missing:
        for spec, result in zip(missing, _execute_batch(missing, jobs)):
            results[spec] = result
            if cache is not None:
                cache.put(keys[spec], result)

    return [results[spec] for spec in specs]


def _execute_batch(
    specs: List[RunSpec], jobs: int
) -> List[SimulationResult]:
    """Execute uncached specs, preferring a spawn pool."""
    workers = min(jobs, len(specs))
    if workers <= 1:
        return [execute_spec(spec) for spec in specs]
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            return list(pool.map(execute_spec, specs))
    except (BrokenProcessPool, OSError, RuntimeError) as exc:
        # Sandboxes without process spawning, __main__-less embedders,
        # fd limits: degrade to the serial path rather than failing -
        # the results are identical either way.
        warnings.warn(
            "parallel execution unavailable (%s); running %d point(s) "
            "serially" % (exc, len(specs)),
            RuntimeWarning,
            stacklevel=3,
        )
        return [execute_spec(spec) for spec in specs]
