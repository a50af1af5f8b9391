"""Loaded-regime saturation studies: injection sweeps and knees.

The paper's evaluation runs one outstanding miss per core against an
uncontended ring, i.e. the *unloaded* regime.  This module drives the
simulator into the *loaded* regime: it sweeps the injection rate by
re-pacing the synthetic workloads (the
:attr:`~repro.workloads.synthetic.SharingProfile.think_scale` axis),
turns on the ring contention model
(:attr:`~repro.config.RingConfig.link_occupancy` /
:attr:`~repro.config.RingConfig.serialize_snoop_port`), and collects
the two classic interconnect curves per (algorithm, topology):

* **loaded latency** - mean read-miss latency versus offered ring
  transaction rate.  Flat while the ring has headroom, then bends up
  sharply at the *knee*;
* **saturation throughput** - achieved versus offered rate.  Linear
  while the ring keeps up, then flat at the ring's capacity.

Cores are closed loop (they block on outstanding misses), so the
*achieved* rate self-limits near saturation; the *offered* rate - the
demand an open-loop source with the same pacing would present - is
extrapolated from the lightest-load point, where achieved and offered
coincide: halving every think time doubles the demand even if the
ring can no longer absorb it.

Two sweep modes share the execution path:

* a **think-scale ladder** (the default): each point divides the
  workload's think times by a fixed factor;
* **closed-loop rate targets** (``target_rates``): a calibration run
  at the workload's native pacing measures the base transaction rate,
  then each target rate is converted into the think scale expected to
  produce it (rate scales inversely with think time below the knee).

All points of a study are independent simulations, so the whole grid
is fanned out through one :func:`~repro.harness.parallel.run_specs`
batch and lands in the shared result cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import default_machine
from repro.harness.parallel import RunSpec, run_specs
from repro.harness.result_cache import ResultCache
from repro.sim.cores import DEFAULT_CORE
from repro.sim.system import SimulationResult
from repro.workloads.source import resolve_source

__all__ = [
    "DEFAULT_THINK_SCALES",
    "DEFAULT_LINK_OCCUPANCY",
    "DEFAULT_KNEE_FACTOR",
    "SaturationPoint",
    "Knee",
    "SaturationCurve",
    "run_saturation",
    "format_saturation",
]

#: Default injection ladder, lightest load first.  The synthetic
#: profiles' native think times (~12 cycles) are tiny next to a
#: ~1000-cycle ring miss, so native pacing (1.0) is *already* a
#: loaded point for a closed-loop core; the ladder therefore starts
#: well above native - scale 40 makes the lightest point genuinely
#: unloaded so it can anchor the offered-rate extrapolation and the
#: knee's base latency - and ends far past saturation.
DEFAULT_THINK_SCALES: Tuple[float, ...] = (
    40.0, 10.0, 3.0, 1.0, 0.3, 0.1,
)

#: Default per-crossing link occupancy (cycles) for saturation
#: studies.  The unloaded evaluation models links as infinitely wide
#: (``link_occupancy=0``); a saturation study needs the ring to run
#: out of capacity *inside* the ladder.  Every ring walk crosses every
#: link, so each physical link caps total throughput at one
#: transaction per ``link_occupancy`` cycles: 600 cycles puts that
#: ceiling low enough that loaded latency passes twice its unloaded
#: value (the default knee factor) before the ladder ends, while the
#: lightest points stay essentially unloaded.
DEFAULT_LINK_OCCUPANCY: int = 600

#: A curve's knee is the first point whose loaded latency exceeds this
#: multiple of the lightest-load latency.
DEFAULT_KNEE_FACTOR: float = 2.0


@dataclass(frozen=True)
class SaturationPoint:
    """One injection-rate point of a saturation curve.

    Rates are ring transactions (read + write requests) per thousand
    simulated cycles per CMP; latency is the mean read-miss latency in
    cycles over the measured phase.
    """

    think_scale: float
    offered_rate: float
    achieved_rate: float
    latency: float
    exec_time: int
    retries: int


@dataclass(frozen=True)
class Knee:
    """Interpolated onset of saturation on a loaded-latency curve."""

    offered_rate: float
    latency: float
    #: The sweep point just past the knee (the first one whose latency
    #: exceeded the threshold).
    think_scale: float


@dataclass
class SaturationCurve:
    """A completed injection sweep for one (algorithm, topology)."""

    algorithm: str
    topology: str
    workload: str
    points: List[SaturationPoint] = field(default_factory=list)

    @property
    def base_latency(self) -> float:
        """Latency at the lightest offered load."""
        if not self.points:
            return 0.0
        return min(self.points, key=lambda p: p.offered_rate).latency

    @property
    def saturation_throughput(self) -> float:
        """Highest achieved rate anywhere on the curve (the capacity
        the closed-loop sources managed to push through the ring)."""
        if not self.points:
            return 0.0
        return max(point.achieved_rate for point in self.points)

    def knee(
        self, factor: float = DEFAULT_KNEE_FACTOR
    ) -> Optional[Knee]:
        """First crossing of ``factor`` x the lightest-load latency.

        The crossing is linearly interpolated in (offered rate,
        latency) between the last point below the threshold and the
        first point above it; ``None`` when the curve never bends that
        far (the sweep stayed under the knee).
        """
        if len(self.points) < 2:
            return None
        ordered = sorted(self.points, key=lambda p: p.offered_rate)
        threshold = factor * ordered[0].latency
        if threshold <= 0.0:
            return None
        for prev, point in zip(ordered, ordered[1:]):
            if point.latency <= threshold:
                continue
            span = point.latency - prev.latency
            frac = (threshold - prev.latency) / span if span > 0 else 1.0
            rate = prev.offered_rate + frac * (
                point.offered_rate - prev.offered_rate
            )
            return Knee(
                offered_rate=rate,
                latency=threshold,
                think_scale=point.think_scale,
            )
        return None


def _transaction_rate(result: SimulationResult) -> float:
    """Achieved ring transactions per thousand cycles per CMP."""
    if not result.exec_time:
        return 0.0
    stats = result.stats
    transactions = (
        stats.read_ring_transactions + stats.write_ring_transactions
    )
    num_cmps = result.config.num_cmps if result.config else 1
    return 1000.0 * transactions / (num_cmps * result.exec_time)


def _study_cmps(topology: str, num_cmps: int) -> int:
    """Machine span for one topology of the study (mirrors the CLI's
    ``--num-cmps`` default: hier_ring means the 16-CMP two-level
    reference machine, everything else keeps the workload's own
    geometry)."""
    if num_cmps:
        return num_cmps
    return 16 if topology == "hier_ring" else 0


def run_saturation(
    algorithms: Sequence[str] = ("lazy", "eager", "oracle"),
    topologies: Sequence[str] = ("ring", "hier_ring"),
    workload: str = "splash2",
    think_scales: Sequence[float] = DEFAULT_THINK_SCALES,
    target_rates: Optional[Sequence[float]] = None,
    accesses_per_core: int = 800,
    seed: int = 0,
    warmup_fraction: float = 0.3,
    link_occupancy: int = DEFAULT_LINK_OCCUPANCY,
    serialize_snoop_port: bool = True,
    num_cmps: int = 0,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    core: str = DEFAULT_CORE,
) -> List[SaturationCurve]:
    """Sweep injection rates for every (algorithm, topology) pair.

    With ``target_rates`` set, a calibration batch first measures each
    pair's transaction rate at native pacing, then the controller
    converts every target rate into the think scale expected to
    produce it (``scale = base_rate / target``, capped at native
    pacing) - closing the loop between "rate I want" and "pacing I
    must inject".  Otherwise ``think_scales`` is swept directly.

    The contention knobs (``link_occupancy``,
    ``serialize_snoop_port``) shape every run's ring.  The object and
    soa cores both model them, bit-identically.

    Returns one :class:`SaturationCurve` per (algorithm, topology), in
    ``algorithms``-major order; every simulation of the study is fanned
    out through a single :func:`run_specs` batch.
    """
    pairs = [
        (algorithm, topology)
        for algorithm in algorithms
        for topology in topologies
    ]
    scales_by_pair: Dict[Tuple[str, str], List[float]]
    if target_rates:
        base_specs = [
            _saturation_spec(
                algorithm, topology, workload, 1.0,
                accesses_per_core, seed, warmup_fraction,
                link_occupancy, serialize_snoop_port,
                _study_cmps(topology, num_cmps), core,
            )
            for algorithm, topology in pairs
        ]
        base_results = run_specs(base_specs, jobs=jobs, cache=cache)
        scales_by_pair = {}
        for pair, result in zip(pairs, base_results):
            base_rate = _transaction_rate(result)
            scales_by_pair[pair] = [
                min(1.0, base_rate / rate) if rate > 0 else 1.0
                for rate in target_rates
            ]
    else:
        ladder = sorted(think_scales, reverse=True)
        scales_by_pair = {pair: list(ladder) for pair in pairs}

    plan: List[Tuple[Tuple[str, str], float]] = []
    specs: List[RunSpec] = []
    for pair in pairs:
        algorithm, topology = pair
        for scale in scales_by_pair[pair]:
            plan.append((pair, scale))
            specs.append(
                _saturation_spec(
                    algorithm, topology, workload, scale,
                    accesses_per_core, seed, warmup_fraction,
                    link_occupancy, serialize_snoop_port,
                    _study_cmps(topology, num_cmps), core,
                )
            )
    results = run_specs(specs, jobs=jobs, cache=cache)

    curves: Dict[Tuple[str, str], SaturationCurve] = {
        pair: SaturationCurve(
            algorithm=pair[0], topology=pair[1], workload=workload
        )
        for pair in pairs
    }
    by_pair: Dict[Tuple[str, str], List[Tuple[float, SimulationResult]]]
    by_pair = {pair: [] for pair in pairs}
    for (pair, scale), result in zip(plan, results):
        by_pair[pair].append((scale, result))
    for pair, runs in by_pair.items():
        if not runs:
            continue
        # Achieved == offered at the lightest load; from there demand
        # grows inversely with the think scale even where the closed
        # loop can no longer realize it.
        lightest_scale, lightest = max(runs, key=lambda sr: sr[0])
        anchor_rate = _transaction_rate(lightest)
        for scale, result in runs:
            curves[pair].points.append(
                SaturationPoint(
                    think_scale=scale,
                    offered_rate=anchor_rate * (lightest_scale / scale),
                    achieved_rate=_transaction_rate(result),
                    latency=result.stats.mean_read_miss_latency,
                    exec_time=result.exec_time,
                    retries=result.stats.retries,
                )
            )
    return [curves[pair] for pair in pairs]


def _saturation_spec(
    algorithm: str,
    topology: str,
    workload: str,
    think_scale: float,
    accesses_per_core: int,
    seed: int,
    warmup_fraction: float,
    link_occupancy: int,
    serialize_snoop_port: bool,
    num_cmps: int,
    core: str,
) -> RunSpec:
    """One fully-shaped simulation point of the study.

    The config is built here (not left to ``resolve_config``'s
    default) because the contention knobs live inside ``RingConfig``;
    the machine is still shaped to the - possibly reshaped - workload
    geometry exactly as the default path would shape it.
    """
    source = resolve_source(
        workload,
        accesses_per_core=accesses_per_core,
        seed=seed,
        num_cmps=num_cmps,
    )
    machine = default_machine(
        algorithm=algorithm,
        cores_per_cmp=source.cores_per_cmp,
        num_cmps=source.num_cmps,
    )
    machine = machine.replace(
        ring=dataclasses.replace(
            machine.ring,
            link_occupancy=link_occupancy,
            serialize_snoop_port=serialize_snoop_port,
        )
    )
    return RunSpec(
        algorithm=algorithm,
        workload=workload,
        accesses_per_core=accesses_per_core,
        seed=seed,
        warmup_fraction=warmup_fraction,
        config=machine,
        core=core,
        topology=topology,
        num_cmps=num_cmps,
        think_scale=think_scale,
    )


def format_saturation(
    curves: Sequence[SaturationCurve],
    knee_factor: float = DEFAULT_KNEE_FACTOR,
) -> str:
    """Render saturation curves as per-pair tables plus a summary.

    Each curve prints one row per injection point (lightest load
    first) with an ASCII bar over the loaded latency, followed by a
    cross-pair summary of saturation throughput and knee location.
    """
    from repro.harness.report import ascii_bar

    blocks: List[str] = []
    for curve in curves:
        title = "Loaded latency [%s, topology=%s, %s]" % (
            curve.algorithm, curve.topology, curve.workload,
        )
        lines = [title, "-" * len(title)]
        header = "%7s %10s %10s %10s %8s" % (
            "scale", "offered", "achieved", "latency", "retries",
        )
        lines.append(header + "  " + "latency")
        points = sorted(
            curve.points, key=lambda p: p.offered_rate
        )
        max_latency = max(
            (p.latency for p in points), default=0.0
        )
        for point in points:
            lines.append(
                "%7.2f %10.3f %10.3f %10.1f %8d  %s"
                % (
                    point.think_scale,
                    point.offered_rate,
                    point.achieved_rate,
                    point.latency,
                    point.retries,
                    ascii_bar(point.latency, max_latency, width=24),
                )
            )
        knee = curve.knee(knee_factor)
        if knee is not None:
            lines.append(
                "knee: %.3f txns/kcycle/CMP at %.1f-cycle latency "
                "(%.1fx base)"
                % (knee.offered_rate, knee.latency, knee_factor)
            )
        else:
            lines.append(
                "knee: not reached (latency stayed under %.1fx base)"
                % knee_factor
            )
        lines.append(
            "saturation throughput: %.3f txns/kcycle/CMP"
            % curve.saturation_throughput
        )
        blocks.append("\n".join(lines))

    summary_title = "Saturation summary"
    summary = [summary_title, "-" * len(summary_title)]
    summary.append(
        "%-14s %-10s %12s %12s" % (
            "algorithm", "topology", "sat-rate", "knee-rate",
        )
    )
    for curve in curves:
        knee = curve.knee(knee_factor)
        summary.append(
            "%-14s %-10s %12.3f %12s"
            % (
                curve.algorithm,
                curve.topology,
                curve.saturation_throughput,
                "%.3f" % knee.offered_rate if knee else "-",
            )
        )
    blocks.append("\n".join(summary))
    return "\n\n".join(blocks)
