"""Generic parameter sweeps over machine configuration.

The ablation benchmarks each hand-roll a loop over one knob; this
module generalizes that into a reusable utility::

    from repro.harness.sweep import Sweep, sweep_ring_field

    sweep = sweep_ring_field(
        "snoop_time", [25, 55, 110],
        algorithm="superset_agg", workload="splash2",
        accesses_per_core=800,
    )
    for point in sweep.points:
        print(point.value, point.result.exec_time)
    print(sweep.series("exec_time"))

Sweeps accept a *mutator* - a function that takes the base
``MachineConfig`` and one swept value and returns the modified config
- so any nested field can be swept without bespoke plumbing.  A
dotted field path stands in for the callable (``mutate`` may be a
string, or ``None`` to reuse ``name``), so the CLI can sweep e.g.
``ring.link_occupancy`` or ``memory.local_round_trip`` without
shipping code::

    sweep = run_sweep("ring.link_occupancy", [0, 15, 30, 60])

Typos raise ``ValueError`` listing every valid field path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.config import MachineConfig, default_machine
from repro.harness.parallel import RunSpec, run_specs
from repro.harness.result_cache import ResultCache
from repro.sim.cores import DEFAULT_CORE
from repro.sim.system import SimulationResult
from repro.workloads.source import resolve_source

ConfigMutator = Callable[[MachineConfig, Any], MachineConfig]


@dataclass
class SweepPoint:
    """One (value, result) pair of a sweep."""

    value: Any
    result: SimulationResult


@dataclass
class Sweep:
    """A completed sweep: the swept values with their run results."""

    name: str
    points: List[SweepPoint] = field(default_factory=list)

    def series(self, metric: str) -> Dict[Any, float]:
        """Extract one metric across the sweep.

        ``metric`` is an attribute of :class:`SimulationResult`
        (``exec_time``, ``total_energy``) or of its ``stats`` object
        (``snoops_per_read_request``, ``mean_read_miss_latency``, ...).
        """
        series: Dict[Any, float] = {}
        for point in self.points:
            if hasattr(point.result, metric):
                series[point.value] = getattr(point.result, metric)
            else:
                series[point.value] = getattr(point.result.stats, metric)
        return series

    def normalized_series(self, metric: str, baseline: Any) -> Dict[
        Any, float
    ]:
        """``series(metric)`` divided by the value at ``baseline``."""
        series = self.series(metric)
        if baseline not in series:
            raise KeyError("baseline value %r not swept" % (baseline,))
        reference = series[baseline]
        if reference == 0:
            raise ZeroDivisionError("baseline metric is zero")
        return {key: value / reference for key, value in series.items()}


def valid_sweep_fields(
    config: Optional[MachineConfig] = None,
) -> List[str]:
    """Every dotted field path :func:`run_sweep` accepts, sorted.

    Scalar ``MachineConfig`` fields appear bare (``squash_backoff``);
    each field of a nested config section appears under its section
    name (``ring.link_occupancy``, ``memory.local_round_trip``, ...).
    """
    base = config if config is not None else MachineConfig()
    names: List[str] = []
    for outer in dataclasses.fields(base):
        value = getattr(base, outer.name)
        if dataclasses.is_dataclass(value):
            names.extend(
                "%s.%s" % (outer.name, inner.name)
                for inner in dataclasses.fields(value)
            )
        else:
            names.append(outer.name)
    return sorted(names)


def field_mutator(path: str) -> ConfigMutator:
    """Mutator assigning the dotted ``MachineConfig`` field ``path``.

    Resolution is validated here, against the dataclass schema, so a
    typo fails fast with the full list of valid paths instead of
    surfacing as an opaque ``dataclasses.replace`` error mid-sweep.
    """
    valid = valid_sweep_fields()
    if path not in valid:
        raise ValueError(
            "unknown sweep field %r; valid fields: %s"
            % (path, ", ".join(valid))
        )
    parts = path.split(".")
    if len(parts) == 1:
        return lambda config, value: config.replace(**{path: value})
    section, field_name = parts
    return lambda config, value: _nested_replace(
        config, section, field_name, value
    )


def run_sweep(
    name: str,
    values: Sequence[Any],
    mutate: Union[ConfigMutator, str, None] = None,
    *,
    algorithm: str = "lazy",
    workload: str = "splash2",
    accesses_per_core: int = 800,
    seed: int = 0,
    warmup_fraction: float = 0.3,
    base_config: Optional[MachineConfig] = None,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    core: str = DEFAULT_CORE,
) -> Sweep:
    """Run one simulation per swept value and collect the results.

    ``mutate`` may be a callable ``(config, value) -> config``, a
    dotted field path (see :func:`valid_sweep_fields`), or ``None`` to
    treat ``name`` itself as the field path.

    The workload source does not vary across swept values, so it is
    resolved once per process and shared by every point (the
    execution layer memoizes it).  The mutator runs here, in the calling
    process, so it may be any callable - only the resulting
    (picklable) ``MachineConfig`` is shipped to pool workers when
    ``jobs`` enables fan-out.
    """
    if mutate is None:
        mutate = field_mutator(name)
    elif isinstance(mutate, str):
        mutate = field_mutator(mutate)
    source = resolve_source(
        workload, accesses_per_core=accesses_per_core, seed=seed
    )
    base = base_config or default_machine(
        algorithm=algorithm,
        cores_per_cmp=source.cores_per_cmp,
        num_cmps=source.num_cmps,
    )
    specs = [
        RunSpec(
            algorithm=algorithm,
            workload=workload,
            accesses_per_core=accesses_per_core,
            seed=seed,
            warmup_fraction=warmup_fraction,
            config=mutate(base, value),
            core=core,
        )
        for value in values
    ]
    results = run_specs(specs, jobs=jobs, cache=cache)
    return Sweep(
        name=name,
        points=[
            SweepPoint(value=value, result=result)
            for value, result in zip(values, results)
        ],
    )


def _nested_replace(config: MachineConfig, section: str, field_name: str,
                    value: Any) -> MachineConfig:
    inner = getattr(config, section)
    return config.replace(
        **{section: dataclasses.replace(inner, **{field_name: value})}
    )


def sweep_ring_field(field_name: str, values: Sequence[Any],
                     **kwargs) -> Sweep:
    """Sweep one field of :class:`RingConfig` (e.g. ``snoop_time``,
    ``hop_latency``, ``link_occupancy``)."""
    return run_sweep(
        "ring.%s" % field_name,
        values,
        lambda config, value: _nested_replace(
            config, "ring", field_name, value
        ),
        **kwargs,
    )


def sweep_memory_field(field_name: str, values: Sequence[Any],
                       **kwargs) -> Sweep:
    """Sweep one field of :class:`MemoryConfig`."""
    return run_sweep(
        "memory.%s" % field_name,
        values,
        lambda config, value: _nested_replace(
            config, "memory", field_name, value
        ),
        **kwargs,
    )


def sweep_predictor_entries(values: Sequence[int], **kwargs) -> Sweep:
    """Sweep the Supplier Predictor's entry count."""
    return run_sweep(
        "predictor.entries",
        values,
        lambda config, value: config.replace(
            predictor=config.predictor.with_entries(value)
        ),
        **kwargs,
    )
