"""Structured observability for the simulator.

This package is the forensic layer the aggregate ``RunStats`` counters
cannot provide: when a run produces a wrong number, the question is
*what did one transaction do on the ring*, and the answer is a typed
per-transaction event trace.

* :mod:`repro.obs.trace` - the event vocabulary
  (:class:`~repro.obs.trace.EventType`,
  :class:`~repro.obs.trace.TraceEvent`) and the sinks
  (:class:`~repro.obs.trace.InMemorySink`,
  :class:`~repro.obs.trace.JsonlStreamSink`) the subsystems emit into.
* :mod:`repro.obs.jsonl` - the on-disk JSONL format (one meta header
  line plus one event per line) and its lazy reader.
* :mod:`repro.obs.timeline` - windowed simulated-time sampling of ring
  occupancy, snoops/request and retries into per-phase series.
* :mod:`repro.obs.audit` - the per-transaction finite-state lifecycle
  validators (``flexsnoop trace audit``), strictly stronger than the
  end-state-only ``_check_line_invariants``; they take a trace one
  event at a time and hold only the transactions in flight.
* :mod:`repro.obs.render` - event filtering and the human-readable
  per-transaction timeline rendering.
* :mod:`repro.obs.runner` - the one-call helper that runs a traced
  simulation (used by the CLI and the golden audit tests).

Tracing is **off by default** and designed to be zero-cost when off:
every emission site in the hot paths is guarded by a single
``if trace is not None`` attribute test.  See
``docs/observability.md``.
"""

from repro.obs.trace import (
    EventType,
    InMemorySink,
    JsonlStreamSink,
    TraceEvent,
    TraceSink,
)

__all__ = [
    "EventType",
    "InMemorySink",
    "JsonlStreamSink",
    "TraceEvent",
    "TraceSink",
]
