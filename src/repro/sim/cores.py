"""The simulation-core registry kind: ``soa`` vs ``object``.

A *core* is the engine that actually advances a configured machine
over a workload: construction signature
``(config, algorithm, workload, *, warmup_fraction, trace_sink)`` and
a single ``run()`` returning a
:class:`~repro.sim.system.SimulationResult` whose ``core`` names it.
Two implementations are registered:

* ``soa`` - the default :class:`~repro.sim.soa.SoaRingMultiprocessor`:
  the struct-of-arrays fused hot loop.  Bit-identical ``summary()``
  output and a byte-identical trace for the supported configuration
  envelope - every topology, link and snoop-port contention, trace
  sinks and the per-retire invariant checks included (the golden and
  property suites enforce this) - and raises
  :class:`~repro.sim.soa.SoaUnsupportedError` at construction outside
  it.
* ``object`` - :class:`~repro.sim.system.RingMultiprocessor`: one
  Python object per subsystem (engine, walker, datapath, transaction
  manager); runs every configuration, including the metrics timeline,
  the write filter and version tracking.

:func:`build_core` builds every run's machine.  Request a core through
:class:`~repro.harness.parallel.RunSpec`'s ``core`` field,
``ExperimentMatrix(core=...)``, or the CLI's ``--core`` flag.
Third-party cores can register under the ``flexsnoop.cores``
entry-point group.
"""

from __future__ import annotations

import sys
from typing import Any, Set

from repro.config import MachineConfig
from repro.core.algorithms import SnoopingAlgorithm
from repro.registry import REGISTRY
from repro.sim.soa import SoaRingMultiprocessor, SoaUnsupportedError
from repro.sim.system import RingMultiprocessor

#: The core every harness entry point and the CLI request by default.
DEFAULT_CORE = "soa"

#: Refusal messages this process has already reported.
_reported: Set[str] = set()

REGISTRY.register(
    "core",
    "object",
    RingMultiprocessor,
    metadata={
        "description": "per-subsystem object model (runs everything, "
        "including the metrics timeline, write filter and version "
        "tracking; the fallback when soa refuses)",
    },
)

REGISTRY.register(
    "core",
    "soa",
    SoaRingMultiprocessor,
    aliases=("vectorized", "fused"),
    metadata={
        "description": "struct-of-arrays fused event loop (default; "
        "every topology, link contention, tracing and invariant "
        "checks included); "
        "bit-identical summaries and traces within its supported "
        "envelope",
    },
)


def build_core(
    core: str,
    config: MachineConfig,
    algorithm: SnoopingAlgorithm,
    workload: Any,
    **kwargs: Any,
) -> Any:
    """Build the machine ``core`` names, or the object core's when that
    core refuses ``config``.

    The refusal comes before the refusing core builds anything, so the
    object core gets the same untouched algorithm, workload and sink,
    and no work is lost.  The first refusal of each reason in a
    process prints one ``flexsnoop: <reason>; falling back to
    core=object`` line on stderr: each pool worker reports for itself,
    and a result served from the result cache, built by no one,
    reports nothing (its ``core`` still names the core that ran).
    """
    try:
        return REGISTRY.create(
            "core", core, config, algorithm, workload, **kwargs
        )
    except SoaUnsupportedError as exc:
        if str(exc) not in _reported:
            _reported.add(str(exc))
            print(
                "flexsnoop: %s; falling back to core=object" % exc,
                file=sys.stderr,
            )
    return RingMultiprocessor(config, algorithm, workload, **kwargs)
