"""The simulation-core registry kind: ``object`` vs ``soa``.

A *core* is the engine that actually advances a configured machine
over a workload: construction signature
``(config, algorithm, workload, *, warmup_fraction, trace_sink)`` and
a single ``run()`` returning a
:class:`~repro.sim.system.SimulationResult`.  Two implementations are
registered:

* ``object`` - the default :class:`~repro.sim.system.RingMultiprocessor`:
  one Python object per subsystem (engine, walker, datapath,
  transaction manager); runs every configuration, including the
  metrics timeline, the write filter, version tracking and topologies
  without static tables.
* ``soa`` - :class:`~repro.sim.soa.SoaRingMultiprocessor`: the
  struct-of-arrays fused hot loop.  Bit-identical ``summary()`` output
  and a byte-identical trace for the supported configuration
  envelope - link and snoop-port contention, trace sinks and the
  per-retire invariant checks included (the golden and property
  suites enforce this) - and raises
  :class:`~repro.sim.soa.SoaUnsupportedError` at construction outside
  it.  :func:`~repro.obs.runner.run_traced` (``flexsnoop trace
  record``) runs on it whenever the envelope covers the machine.

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
        "description": "per-subsystem object model (default; runs "
        "everything, including the metrics timeline, write filter, "
        "version tracking and dynamic topologies)",
    },
)

REGISTRY.register(
    "core",
    "soa",
    SoaRingMultiprocessor,
    aliases=("vectorized", "fused"),
    metadata={
        "description": "struct-of-arrays fused event loop (link "
        "contention, tracing and invariant checks included); "
        "bit-identical summaries and traces within its supported "
        "envelope",
    },
)
