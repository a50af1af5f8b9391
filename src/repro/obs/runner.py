"""One-call traced simulation runs for the CLI, audits and tests.

:func:`run_traced` is :func:`repro.harness.experiments.run_experiment`
with the observability layer switched on: it resolves the same
(algorithm, workload, predictor, scale, seed) cell through the same
:class:`~repro.harness.parallel.RunSpec` machinery - so a traced run
simulates exactly the machine the harness would - then attaches a
trace sink (a :class:`~repro.obs.trace.TraceSink`, or a registry spec
such as ``"memory"`` or ``"jsonl:/tmp/run.jsonl"``) and, when
``sample_window`` is set, a metrics timeline, and returns everything
bundled as a :class:`TracedRun`.

The machine comes from :func:`~repro.sim.cores.build_core`, as every
run's does: the default core (``soa``) whenever its envelope covers
the resolved machine, and the object core otherwise (the metrics
timeline, the write filter, version tracking, a topology without
static tables).  Both cores emit the same events, so the choice
changes the run's speed, not its trace; :attr:`TracedRun.core` names
the core that ran.  No work is rerun.

With a file-backed sink the events stream to disk as they are
emitted and :attr:`TracedRun.events` stays empty - recording a
million-event run needs bounded memory.  ``audit=True`` also feeds
every event to the online :class:`~repro.obs.audit.TraceAuditor` the
run's metadata describes, so the audit needs bounded memory too.
``meta["num_events"]`` and :attr:`TracedRun.transactions` are
accurate either way.

Traced runs are never result-cached: the persistent cache stores
``SimulationResult`` objects only, and a trace is cheap to regenerate
deterministically from the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.config import MachineConfig, TraceConfig
from repro.core.algorithms import build_algorithm
from repro.harness.parallel import RunSpec, _cached_source
from repro.obs.audit import TraceAuditor, Violation, auditor_for
from repro.obs.jsonl import TraceReader
from repro.obs.timeline import TimelineSample
from repro.obs.trace import (
    EventType,
    InMemorySink,
    JsonlStreamSink,
    TraceEvent,
    TraceSink,
    resolve_sink,
)
from repro.sim.cores import DEFAULT_CORE, build_core
from repro.sim.system import RingMultiprocessor, SimulationResult

_ISSUE = EventType.ISSUE


@dataclass
class TracedRun:
    """A simulation result plus everything observed along the way.

    ``events`` holds the in-memory event list when the run used the
    default ``"memory"`` sink and is empty for streaming sinks (the
    events are on disk; ``meta["num_events"]`` still counts them).
    ``transactions`` counts the transactions issued (``issue``
    events; in a trace that audits clean, the distinct transaction
    ids), and ``violations`` is the audit's verdict (``None`` when not
    audited).
    """

    result: SimulationResult
    events: List[TraceEvent]
    samples: List[TimelineSample]
    meta: Dict[str, Any]
    transactions: int = 0
    violations: Optional[List[Violation]] = None

    @property
    def core(self) -> str:
        """The simulation core that ran (``"soa"`` or ``"object"``)."""
        return self.result.core

    def summary(self) -> Dict[str, float]:
        return self.result.summary()


class _Tee(TraceSink):
    """What the machine emits into: each event goes to the run's sink
    and, when auditing, to the online auditor; events and issued
    transactions are counted on the way (a count, not a set of ids:
    a long run's ids would grow memory with its length).
    """

    def __init__(
        self, sink: TraceSink, auditor: Optional[TraceAuditor]
    ) -> None:
        self._emit = sink.emit
        self._feed = auditor.feed if auditor is not None else None
        self.events = 0
        self.issues = 0

    def emit(self, event: TraceEvent) -> None:
        self._emit(event)
        self.events += 1
        if event.type is _ISSUE:
            self.issues += 1
        if self._feed is not None:
            self._feed(event)


def run_traced(
    algorithm: str,
    workload: str,
    predictor: Optional[str] = None,
    accesses_per_core: int = 0,
    seed: int = 0,
    warmup_fraction: float = 0.0,
    check_invariants: bool = False,
    sample_window: int = 0,
    config: Optional[MachineConfig] = None,
    sink: Union[str, TraceSink] = "memory",
    topology: Optional[str] = None,
    num_cmps: int = 0,
    think_scale: float = 1.0,
    audit: bool = False,
) -> TracedRun:
    """Run one cell with tracing on and return the full observation.

    Args:
        algorithm: algorithm name (registry kind ``algorithm``).
        workload: workload source spec (registry kind ``workload``
            name, or a scheme spec such as ``file:trace.jsonl``).
        predictor: named predictor override (Section 5.2 names).
        accesses_per_core: trace length (0 = workload default).
        seed: workload seed override (0 = workload default).
        warmup_fraction: measurement warmup window (events emitted
            during warmup are traced too, phase-tagged by time).
        check_invariants: also enable the simulator's synchronous
            per-line protocol checks (audit mode runs with this on).
        sample_window: simulated cycles between metrics-timeline
            samples (0 = no timeline; a timeline runs on the object
            core).
        config: full machine config override, as in
            :func:`~repro.harness.experiments.run_experiment`.
        sink: the trace sink, or its spec (registry kind ``sink``).
            It gets the run metadata as ``sink.meta`` (file-backed
            sinks write it as their header line) and is closed here.
        topology: snoop-topology override (registry kind
            ``topology``), as in
            :func:`~repro.harness.experiments.run_experiment`.
        num_cmps: machine-span override (0 = the workload's own
            geometry).
        think_scale: injection-rate re-pacing of synthetic workloads
            (1.0 = native pacing), as in
            :func:`~repro.harness.experiments.run_experiment`.
        audit: also feed every event to :func:`auditor_for` the run's
            metadata; :attr:`TracedRun.violations` holds the verdict.
            A transaction that gets an event after it closed is
            re-audited from the sink's events or file.
    """
    trace_sink = resolve_sink(sink) if isinstance(sink, str) else sink
    # Closed however the run ends; a file sink writes its header then.
    with trace_sink:
        spec = RunSpec(
            algorithm=algorithm,
            workload=workload,
            predictor=predictor,
            accesses_per_core=accesses_per_core,
            seed=seed,
            warmup_fraction=warmup_fraction,
            config=config,
            topology=topology,
            num_cmps=num_cmps,
            think_scale=think_scale,
        )
        source = _cached_source(
            workload, accesses_per_core, seed, num_cmps, think_scale
        )
        machine = spec.resolve_config(source.cores_per_cmp, source.num_cmps)
        machine = machine.replace(
            tracing=TraceConfig(enabled=True, sample_window=sample_window),
            check_invariants=machine.check_invariants or check_invariants,
        )
        # Resolvable pre-run metadata; the result-dependent fields are
        # added after the run, before the sink closes and writes its header.
        meta: Dict[str, Any] = {
            "algorithm": build_algorithm(algorithm).name,
            "workload": source.name,
            "predictor": predictor,
            "predictor_kind": machine.predictor.kind,
            "num_cmps": machine.num_cmps,
            "cores_per_cmp": machine.cores_per_cmp,
            "accesses_per_core": accesses_per_core,
            "seed": seed,
            "warmup_fraction": warmup_fraction,
            "topology": machine.topology.kind,
        }
        if think_scale != 1.0:
            # Keyed only when re-paced so native-pacing trace headers stay
            # byte-identical to pre-axis captures.
            meta["think_scale"] = think_scale
        if machine.topology.kind != "ring":
            # Non-ring walks hop along a different successor cycle; the
            # auditor needs it to check per-segment conservation, so it is
            # persisted with the trace rather than re-derived.
            from repro.ring.topology import build_topology

            meta["successors"] = build_topology(machine).successors()
        trace_sink.meta = meta
        auditor = auditor_for(meta) if audit else None
        tee = _Tee(trace_sink, auditor)
        system = build_core(
            DEFAULT_CORE,
            machine,
            build_algorithm(algorithm),
            source,
            warmup_fraction=warmup_fraction,
            trace_sink=tee,
        )
        result = system.run()
        meta["algorithm"] = result.algorithm
        meta["workload"] = result.workload
        meta["exec_time"] = result.exec_time
        meta["num_events"] = tee.events
    samples: List[TimelineSample] = []
    if isinstance(system, RingMultiprocessor) and system.timeline is not None:
        samples = system.timeline.samples
    events: List[TraceEvent] = []
    replay: Optional[Iterable[TraceEvent]] = None
    if isinstance(trace_sink, InMemorySink):
        events = replay = trace_sink.events
    elif isinstance(trace_sink, JsonlStreamSink):
        replay = TraceReader(trace_sink.path)
    return TracedRun(
        result=result,
        events=events,
        samples=samples,
        meta=meta,
        transactions=tee.issues,
        violations=auditor.finish(replay) if auditor is not None else None,
    )
