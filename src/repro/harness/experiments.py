"""Experiment matrix runner.

The paper's evaluation (Section 6) compares seven algorithms across
three workload classes along four dimensions, then varies the
Supplier Predictor organization.  This module runs that matrix and
formats each figure's data the way the paper presents it.

Results are memoized per (algorithm, workload, predictor, scale,
seed): Figures 6-9 all derive from the *same* run matrix, just like
the paper derives them from the same simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.harness.parallel import RunSpec, execute_spec, run_specs
from repro.harness.result_cache import ResultCache
from repro.sim.cores import DEFAULT_CORE
from repro.sim.system import SimulationResult

#: Algorithms of the main comparison (Section 6.1), in paper order.
MAIN_ALGORITHMS: Tuple[str, ...] = (
    "lazy",
    "eager",
    "oracle",
    "subset",
    "superset_con",
    "superset_agg",
    "exact",
)

#: Workload classes of the evaluation.
WORKLOADS: Tuple[str, ...] = ("splash2", "specjbb", "specweb")

#: Predictor variants of the sensitivity study (Section 6.2).
SENSITIVITY_PREDICTORS: Dict[str, Tuple[str, ...]] = {
    "subset": ("Sub512", "Sub2k", "Sub8k"),
    "superset_con": ("Supy512", "Supy2k", "Supn2k"),
    "superset_agg": ("Supy512", "Supy2k", "Supn2k"),
    "exact": ("Exa512", "Exa2k", "Exa8k"),
}

#: Default trace length per core for harness/benchmark runs.  Large
#: enough for stable statistics, small enough for quick iteration.
DEFAULT_SCALE = 2000


#: Fraction of each run used to warm caches and predictors before
#: statistics are collected (the paper similarly skips workload
#: initialization before measuring).
DEFAULT_WARMUP = 0.35


def run_experiment(
    algorithm: str,
    workload: str,
    predictor: Optional[str] = None,
    accesses_per_core: int = DEFAULT_SCALE,
    seed: int = 0,
    config: Optional[MachineConfig] = None,
    warmup_fraction: float = DEFAULT_WARMUP,
    core: str = DEFAULT_CORE,
    topology: Optional[str] = None,
    num_cmps: int = 0,
    think_scale: float = 1.0,
) -> SimulationResult:
    """Run one (algorithm, workload) cell of the evaluation matrix.

    Args:
        algorithm: algorithm name (see ``repro.core.ALGORITHMS``).
        workload: ``splash2``, ``specjbb`` or ``specweb``.
        predictor: named predictor override (Section 5.2 names); by
            default the algorithm's main-comparison predictor is used.
        accesses_per_core: trace length (0 = workload default).
        seed: workload seed override (0 = workload default).
        config: full machine config override (advanced use; its
            predictor field is still replaced when ``predictor`` or
            the algorithm default says so).
        core: the requested simulation core (registry kind
            ``core``); the result's ``core`` names the one that ran.
        topology: snoop-topology override (registry kind
            ``topology``): None leaves the machine's default single
            ring; e.g. ``hier_ring`` for the two-level machine.
        num_cmps: machine-span override (0 = the workload's own
            geometry); reshapes synthetic workloads across that many
            CMPs.
        think_scale: think-time multiplier (1.0 = workload default);
            the loaded-regime injection axis (smaller = more load).
    """
    return execute_spec(
        RunSpec(
            algorithm=algorithm,
            workload=workload,
            predictor=predictor,
            accesses_per_core=accesses_per_core,
            seed=seed,
            warmup_fraction=warmup_fraction,
            config=config,
            core=core,
            topology=topology,
            num_cmps=num_cmps,
            think_scale=think_scale,
        )
    )


#: One (algorithm, workload, predictor) cell of the matrix.
MatrixCell = Tuple[str, str, Optional[str]]


@dataclass
class ExperimentMatrix:
    """Runs and caches the full evaluation matrix.

    All figure extractors pull from the shared in-memory cache, so the
    matrix is simulated at most once per configuration per process.
    Two optional layers accelerate it further:

    * ``jobs``: cells that are not yet simulated are fanned out over a
      process pool (see :mod:`repro.harness.parallel`).  Results are
      bit-identical to a serial run; ``jobs=1`` forces serial.
    * ``result_cache``: a persistent on-disk cache shared across
      processes and invocations, so ``flexsnoop figure 8`` after a
      figure-6 run at the same scale performs zero new simulations.
    """

    accesses_per_core: int = DEFAULT_SCALE
    seed: int = 0
    algorithms: Sequence[str] = MAIN_ALGORITHMS
    workloads: Sequence[str] = WORKLOADS
    jobs: Optional[int] = 1
    result_cache: Optional[ResultCache] = None
    core: str = DEFAULT_CORE
    topology: Optional[str] = None
    num_cmps: int = 0
    think_scale: float = 1.0
    _cache: Dict[MatrixCell, SimulationResult] = field(
        default_factory=dict
    )

    def _spec(self, cell: MatrixCell) -> RunSpec:
        algorithm, workload, predictor = cell
        return RunSpec(
            algorithm=algorithm,
            workload=workload,
            predictor=predictor,
            accesses_per_core=self.accesses_per_core,
            seed=self.seed,
            warmup_fraction=DEFAULT_WARMUP,
            core=self.core,
            topology=self.topology,
            num_cmps=self.num_cmps,
            think_scale=self.think_scale,
        )

    def ensure(self, cells: Sequence[MatrixCell]) -> None:
        """Simulate every not-yet-known cell, fanning out when a pool
        is allowed.  Figure extractors bulk-ensure their whole plan up
        front so the expensive part parallelizes."""
        todo = [cell for cell in cells if cell not in self._cache]
        if not todo:
            return
        results = run_specs(
            [self._spec(cell) for cell in todo],
            jobs=self.jobs,
            cache=self.result_cache,
        )
        for cell, result in zip(todo, results):
            self._cache[cell] = result

    def result(
        self,
        algorithm: str,
        workload: str,
        predictor: Optional[str] = None,
    ) -> SimulationResult:
        key = (algorithm, workload, predictor)
        if key not in self._cache:
            self.ensure([key])
        return self._cache[key]

    def main_cells(self) -> List[MatrixCell]:
        """Cells of the main comparison (Figures 6-9)."""
        return [
            (algorithm, workload, None)
            for workload in self.workloads
            for algorithm in self.algorithms
        ]

    def _normalized_cells(self) -> List[MatrixCell]:
        """Main cells plus the Lazy baselines the normalized figures
        divide by (Lazy may be absent from a restricted matrix)."""
        cells = self.main_cells()
        for workload in self.workloads:
            cell: MatrixCell = ("lazy", workload, None)
            if cell not in cells:
                cells.append(cell)
        return cells

    def run_main_matrix(self) -> None:
        """Eagerly run every (algorithm, workload) cell."""
        self.ensure(self.main_cells())

    # ------------------------------------------------------------------
    # Figure 6: snoop operations per read snoop request

    def fig6_snoops_per_request(self) -> Dict[str, Dict[str, float]]:
        """{workload: {algorithm: snoops/request}} (absolute values)."""
        self.ensure(self.main_cells())
        return {
            workload: {
                algorithm: self.result(
                    algorithm, workload
                ).stats.snoops_per_read_request
                for algorithm in self.algorithms
            }
            for workload in self.workloads
        }

    # ------------------------------------------------------------------
    # Figure 7: ring read messages, normalized to Lazy

    def fig7_read_messages(self) -> Dict[str, Dict[str, float]]:
        """{workload: {algorithm: crossings normalized to Lazy}}."""
        self.ensure(self._normalized_cells())
        table: Dict[str, Dict[str, float]] = {}
        for workload in self.workloads:
            lazy = self.result("lazy", workload).stats.read_ring_crossings
            table[workload] = {
                algorithm: (
                    self.result(algorithm, workload).stats.read_ring_crossings
                    / lazy
                    if lazy
                    else 0.0
                )
                for algorithm in self.algorithms
            }
        return table

    # ------------------------------------------------------------------
    # Figure 8: execution time, normalized to Lazy

    def fig8_execution_time(self) -> Dict[str, Dict[str, float]]:
        self.ensure(self._normalized_cells())
        table: Dict[str, Dict[str, float]] = {}
        for workload in self.workloads:
            lazy = self.result("lazy", workload).exec_time
            table[workload] = {
                algorithm: (
                    self.result(algorithm, workload).exec_time / lazy
                    if lazy
                    else 0.0
                )
                for algorithm in self.algorithms
            }
        return table

    # ------------------------------------------------------------------
    # Figure 9: snoop-traffic energy, normalized to Lazy

    def fig9_energy(self) -> Dict[str, Dict[str, float]]:
        self.ensure(self._normalized_cells())
        table: Dict[str, Dict[str, float]] = {}
        for workload in self.workloads:
            lazy = self.result("lazy", workload).total_energy
            table[workload] = {
                algorithm: (
                    self.result(algorithm, workload).total_energy / lazy
                    if lazy
                    else 0.0
                )
                for algorithm in self.algorithms
            }
        return table

    # ------------------------------------------------------------------
    # Figure 10: predictor-size sensitivity of execution time

    def fig10_sensitivity(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """{workload: {algorithm: {predictor: exec time normalized to
        the main-comparison predictor}}}."""
        self.ensure(
            [
                (algorithm, workload, predictor)
                for workload in self.workloads
                for algorithm, predictors in SENSITIVITY_PREDICTORS.items()
                for predictor in (None,) + predictors
            ]
        )
        table: Dict[str, Dict[str, Dict[str, float]]] = {}
        for workload in self.workloads:
            table[workload] = {}
            for algorithm, predictors in SENSITIVITY_PREDICTORS.items():
                center = self.result(algorithm, workload).exec_time
                table[workload][algorithm] = {
                    predictor: (
                        self.result(algorithm, workload, predictor).exec_time
                        / center
                        if center
                        else 0.0
                    )
                    for predictor in predictors
                }
        return table

    # ------------------------------------------------------------------
    # Figure 11: Supplier Predictor accuracy

    def fig11_accuracy(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """{predictor-label: {workload: fraction breakdown}}.

        Includes the ``Perfect`` reference collected on the Lazy runs
        (checked at every node until the supplier is found).
        """
        plan = [
            ("Sub512", "subset", "Sub512"),
            ("Sub2k", "subset", "Sub2k"),
            ("Sub8k", "subset", "Sub8k"),
            ("SupCy512", "superset_con", "Supy512"),
            ("SupCy2k", "superset_con", "Supy2k"),
            ("SupCn2k", "superset_con", "Supn2k"),
            ("Exa512", "exact", "Exa512"),
            ("Exa2k", "exact", "Exa2k"),
            ("Exa8k", "exact", "Exa8k"),
        ]
        self.ensure(
            [("lazy", workload, None) for workload in self.workloads]
            + [
                (algorithm, workload, predictor)
                for _, algorithm, predictor in plan
                for workload in self.workloads
            ]
        )
        table: Dict[str, Dict[str, Dict[str, float]]] = {}
        table["Perfect"] = {
            workload: self.result(
                "lazy", workload
            ).stats.perfect_accuracy.fractions()
            for workload in self.workloads
        }
        for label, algorithm, predictor in plan:
            table[label] = {
                workload: self.result(
                    algorithm, workload, predictor
                ).stats.accuracy.fractions()
                for workload in self.workloads
            }
        return table


# ----------------------------------------------------------------------
# Topology comparison (fig6-style, ring vs hier_ring)

#: Algorithms of the topology comparison matrix: the two forwarding
#: extremes plus the Oracle bound, enough to show how the snoop
#: algorithms react to a different snoop-path shape.
TOPOLOGY_COMPARISON_ALGORITHMS: Tuple[str, ...] = (
    "lazy",
    "eager",
    "oracle",
)


def compare_topologies(
    topologies: Sequence[str] = ("ring", "hier_ring"),
    algorithms: Sequence[str] = TOPOLOGY_COMPARISON_ALGORITHMS,
    workloads: Sequence[str] = WORKLOADS,
    accesses_per_core: int = DEFAULT_SCALE,
    seed: int = 0,
    num_cmps: int = 0,
    jobs: Optional[int] = 1,
    result_cache: Optional[ResultCache] = None,
    core: str = DEFAULT_CORE,
) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
    """Run the fig6-style matrix once per topology.

    Returns ``{topology: {"snoops_per_request": fig6-table,
    "exec_time": fig8-table}}``: the same (algorithm, workload) cells
    simulated on each named topology, so the effect of e.g. the
    two-level hierarchy on snoop counts and execution time reads off
    directly.  ``num_cmps`` applies to every topology (0 = each
    workload's own geometry), keeping the machines comparable.
    """
    table: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for topology in topologies:
        matrix = ExperimentMatrix(
            accesses_per_core=accesses_per_core,
            seed=seed,
            algorithms=tuple(algorithms),
            workloads=tuple(workloads),
            jobs=jobs,
            result_cache=result_cache,
            core=core,
            # "ring" is spelled explicitly (not None) so the run
            # proves the explicit-default path is bit-identical.
            topology=topology,
            num_cmps=num_cmps,
        )
        matrix.run_main_matrix()
        table[topology] = {
            "snoops_per_request": matrix.fig6_snoops_per_request(),
            "exec_time": matrix.fig8_execution_time(),
        }
    return table


def format_topology_comparison(
    table: Dict[str, Dict[str, Dict[str, Dict[str, float]]]],
) -> str:
    """Render :func:`compare_topologies` output as stacked fig6/fig8
    text tables, one block per topology."""
    blocks = []
    for topology, figures in table.items():
        blocks.append(
            format_by_workload(
                "Snoops per read request [topology=%s]" % topology,
                figures["snoops_per_request"],
            )
        )
        blocks.append(
            format_by_workload(
                "Execution time normalized to Lazy [topology=%s]"
                % topology,
                figures["exec_time"],
            )
        )
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Formatting helpers (paper-style text tables)


def format_by_workload(
    title: str,
    table: Dict[str, Dict[str, float]],
    fmt: str = "%6.2f",
) -> str:
    """Render a {workload: {algorithm: value}} table like the paper's
    bar charts: one row per algorithm, one column per workload."""
    workloads = list(table)
    algorithms: List[str] = list(next(iter(table.values())))
    lines = [title]
    header = "%-14s" % "algorithm" + "".join(
        "%12s" % w for w in workloads
    )
    lines.append(header)
    lines.append("-" * len(header))
    for algorithm in algorithms:
        row = "%-14s" % algorithm + "".join(
            "%12s" % (fmt % table[w][algorithm]) for w in workloads
        )
        lines.append(row)
    return "\n".join(lines)


def format_accuracy_table(
    table: Dict[str, Dict[str, Dict[str, float]]]
) -> str:
    """Render the Figure 11 accuracy breakdown."""
    lines = ["Figure 11: Supplier Predictor accuracy (fractions)"]
    header = "%-10s %-9s %6s %6s %6s %6s" % (
        "predictor",
        "workload",
        "TP",
        "TN",
        "FP",
        "FN",
    )
    lines.append(header)
    lines.append("-" * len(header))
    for predictor, by_workload in table.items():
        for workload, frac in by_workload.items():
            lines.append(
                "%-10s %-9s %6.3f %6.3f %6.3f %6.3f"
                % (
                    predictor,
                    workload,
                    frac["true_positive"],
                    frac["true_negative"],
                    frac["false_positive"],
                    frac["false_negative"],
                )
            )
    return "\n".join(lines)
