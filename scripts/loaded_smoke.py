#!/usr/bin/env python
"""Loaded-regime smoke test: a tiny injection sweep end to end.

Claim under test: the saturation-study pipeline is healthy - re-pacing
the workload through the ``think_scale`` axis against a contended ring
(finite ``link_occupancy``, serialized snoop ports) produces a curve
whose loaded latency is monotone in offered load, and the contention
model perturbs *timing only*: a fully traced and invariant-checked
contended run must still pass the protocol auditor with zero
violations.

Protocol (run per smoke algorithm - Lazy as the no-predictor
baseline and Criticality, whose decision inputs are the retries and
MSHR queues that only exist under contention):

1. Run a two-point injection sweep (one genuinely light point, one
   well past the ring's capacity) for one (algorithm, topology) pair
   through :func:`repro.harness.saturation.run_saturation` and print
   the emitted curve.
2. Run the same sweep on ``core="soa"`` (the fused loop books links
   and snoop ports itself) and require its curve to equal the object
   core's point for point.
3. Assert the heavier point offers more and is served no faster
   (monotone loaded latency), and that both points completed.
4. Re-run both injection points through
   :func:`repro.obs.runner.run_traced` with event tracing plus
   synchronous invariant checks on (it runs them on the soa core,
   whose envelope covers both), and feed each trace to the
   policy-aware :class:`~repro.obs.audit.TraceAuditor` (decision
   table and write-snoop form included): zero violations required.

Exit status 0 on success, 1 with a diagnostic on failure.  Run it
from the repository root: ``python scripts/loaded_smoke.py``
(``PYTHONPATH=src`` if the package is not installed).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
    ),
)

from repro.config import RingConfig, default_machine  # noqa: E402
from repro.core.algorithms import build_algorithm  # noqa: E402
from repro.harness.saturation import (  # noqa: E402
    DEFAULT_LINK_OCCUPANCY,
    SaturationCurve,
    format_saturation,
    run_saturation,
)
from repro.obs.audit import TraceAuditor  # noqa: E402
from repro.obs.runner import run_traced  # noqa: E402
from repro.workloads.source import resolve_source  # noqa: E402

#: The no-predictor baseline plus the criticality-aware policy, whose
#: decision context (retries, MSHR-waiter depth) is only exercised in
#: the contended regime this smoke drives.
ALGORITHMS = ("lazy", "criticality")
WORKLOAD = "specjbb"
SCALE = 150
#: One genuinely light point and one well past the ring's capacity.
THINK_SCALES = (40.0, 0.3)
LINK_OCCUPANCY = DEFAULT_LINK_OCCUPANCY


def _curve(algorithm: str, core: str) -> SaturationCurve:
    (curve,) = run_saturation(
        algorithms=(algorithm,),
        topologies=("ring",),
        workload=WORKLOAD,
        think_scales=THINK_SCALES,
        accesses_per_core=SCALE,
        warmup_fraction=0.0,
        link_occupancy=LINK_OCCUPANCY,
        jobs=1,
        cache=None,
        core=core,
    )
    return curve


def sweep(algorithm: str) -> int:
    print(
        "sweeping %s on ring: think scales %s, link occupancy %d..."
        % (algorithm, THINK_SCALES, LINK_OCCUPANCY)
    )
    curve = _curve(algorithm, "object")
    print()
    print(format_saturation([curve]))
    print()
    fused = _curve(algorithm, "soa")
    if fused.points != curve.points:
        print("FAIL: the soa core's curve differs from the object core's:")
        for ours, theirs in zip(curve.points, fused.points):
            print("  object %s\n  soa    %s" % (ours, theirs))
        return 1
    print("OK: soa curve equals the object core's point for point")
    if len(curve.points) != len(THINK_SCALES):
        print(
            "FAIL: expected %d curve points, got %d"
            % (len(THINK_SCALES), len(curve.points))
        )
        return 1
    light, heavy = sorted(
        curve.points, key=lambda p: p.offered_rate
    )
    if not all(p.exec_time > 0 for p in curve.points):
        print("FAIL: a sweep point reported zero execution time")
        return 1
    if heavy.offered_rate <= light.offered_rate:
        print(
            "FAIL: offered rate did not grow with injection "
            "(%.3f -> %.3f)"
            % (light.offered_rate, heavy.offered_rate)
        )
        return 1
    if heavy.latency < light.latency:
        print(
            "FAIL: loaded latency fell under heavier load "
            "(%.1f -> %.1f cycles)"
            % (light.latency, heavy.latency)
        )
        return 1
    print(
        "OK: loaded latency monotone (%.1f -> %.1f cycles over "
        "%.3f -> %.3f txns/kcycle/CMP)"
        % (
            light.latency,
            heavy.latency,
            light.offered_rate,
            heavy.offered_rate,
        )
    )
    return 0


def audit(algorithm: str) -> int:
    source = resolve_source(WORKLOAD, accesses_per_core=SCALE)
    policy = build_algorithm(algorithm)
    machine = default_machine(
        algorithm=algorithm,
        cores_per_cmp=source.cores_per_cmp,
        num_cmps=source.num_cmps,
        ring=RingConfig(
            link_occupancy=LINK_OCCUPANCY,
            serialize_snoop_port=True,
        ),
    )
    for scale in THINK_SCALES:
        print(
            "auditing traced contended run at think scale %.2f..."
            % scale
        )
        traced = run_traced(
            algorithm,
            WORKLOAD,
            accesses_per_core=SCALE,
            config=machine,
            check_invariants=True,
            think_scale=scale,
        )
        if not traced.events:
            print("FAIL: tracing produced no events")
            return 1
        auditor = TraceAuditor(
            num_cmps=traced.meta["num_cmps"],
            table=policy.decision_table(),
            decouple_writes=policy.decouple_writes,
        )
        violations = auditor.audit(traced.events)
        if violations:
            print(
                "FAIL: auditor found %d violations:" % len(violations)
            )
            for violation in violations[:10]:
                print("  %s" % violation)
            return 1
        print(
            "  clean: %d events, exec_time %d (core %s)"
            % (len(traced.events), traced.result.exec_time, traced.core)
        )
    print("OK: zero auditor violations under contention")
    return 0


def main() -> int:
    for algorithm in ALGORITHMS:
        rc = sweep(algorithm)
        if rc:
            return rc
        rc = audit(algorithm)
        if rc:
            return rc
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
