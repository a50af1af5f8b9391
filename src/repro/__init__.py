"""Flexible Snooping - reproduction of Strauss, Shen & Torrellas,
"Flexible Snooping: Adaptive Forwarding and Filtering of Snoops in
Embedded-Ring Multiprocessors", ISCA 2006.

Public API quick-tour::

    from repro import (
        default_machine, build_algorithm, build_workload,
        RingMultiprocessor,
    )

    machine = default_machine(algorithm="superset_agg")
    workload = build_workload("splash2", accesses_per_core=1000)
    system = RingMultiprocessor(machine, build_algorithm("superset_agg"),
                                workload)
    result = system.run()
    print(result.stats.snoops_per_read_request, result.total_energy)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.config import (
    CacheConfig,
    DataNetworkConfig,
    EnergyConfig,
    MachineConfig,
    MemoryConfig,
    NAMED_PREDICTORS,
    PredictorConfig,
    RingConfig,
    default_machine,
)
from repro.core import (
    ALGORITHMS,
    Eager,
    Exact,
    Lazy,
    Oracle,
    Primitive,
    SnoopingAlgorithm,
    Subset,
    SupersetAgg,
    SupersetCon,
    SupersetHybrid,
    build_algorithm,
    build_predictor,
)
from repro.sim import RingMultiprocessor, SimulationResult
from repro.workloads import (
    FileReplaySource,
    SharingProfile,
    SyntheticSource,
    TraceSource,
    WorkloadSource,
    WorkloadTrace,
    as_source,
    build_workload,
    generate_workload,
    resolve_source,
)

__version__ = "1.3.0"

__all__ = [
    "CacheConfig",
    "DataNetworkConfig",
    "EnergyConfig",
    "MachineConfig",
    "MemoryConfig",
    "NAMED_PREDICTORS",
    "PredictorConfig",
    "RingConfig",
    "default_machine",
    "ALGORITHMS",
    "Eager",
    "Exact",
    "Lazy",
    "Oracle",
    "Primitive",
    "SnoopingAlgorithm",
    "Subset",
    "SupersetAgg",
    "SupersetCon",
    "SupersetHybrid",
    "build_algorithm",
    "build_predictor",
    "RingMultiprocessor",
    "SimulationResult",
    "SharingProfile",
    "WorkloadTrace",
    "WorkloadSource",
    "TraceSource",
    "SyntheticSource",
    "FileReplaySource",
    "as_source",
    "resolve_source",
    "build_workload",
    "generate_workload",
    "__version__",
]
