"""The simulation-core registry kind: ``object`` vs ``soa``.

A *core* is the engine that actually advances a configured machine
over a workload: construction signature
``(config, algorithm, workload, *, warmup_fraction, trace_sink)`` and
a single ``run()`` returning a
:class:`~repro.sim.system.SimulationResult`.  Two implementations are
registered:

* ``object`` - the default :class:`~repro.sim.system.RingMultiprocessor`:
  one Python object per subsystem (engine, walker, datapath,
  transaction manager), full observability (tracing sinks, invariant
  checking, link contention).
* ``soa`` - :class:`~repro.sim.soa.SoaRingMultiprocessor`: the
  struct-of-arrays fused hot loop.  Bit-identical ``summary()`` output
  for the supported configuration envelope, link and snoop-port
  contention included (the golden and property suites enforce this),
  raises :class:`~repro.sim.soa.SoaUnsupportedError` outside it.

Select a core through :class:`~repro.harness.parallel.RunSpec`'s
``core`` field, ``ExperimentMatrix(core=...)``, or the CLI's
``--core`` flag.  Third-party cores can register under the
``flexsnoop.cores`` entry-point group.
"""

from __future__ import annotations

from repro.registry import REGISTRY
from repro.sim.soa import SoaRingMultiprocessor
from repro.sim.system import RingMultiprocessor

REGISTRY.register(
    "core",
    "object",
    RingMultiprocessor,
    metadata={
        "description": "per-subsystem object model (default; full "
        "observability: tracing, invariant checks, link contention)",
    },
)

REGISTRY.register(
    "core",
    "soa",
    SoaRingMultiprocessor,
    aliases=("vectorized", "fused"),
    metadata={
        "description": "struct-of-arrays fused event loop (link "
        "contention included); bit-identical summaries within its "
        "supported envelope",
    },
)
