"""Object/SoA equivalence on every workload and every algorithm.

``test_soa_equivalence`` pins the SoA core to the golden capture, which
covers the two commercial profiles and the seven main algorithms.  The
figures draw from a wider surface: the SPLASH-2 mix, the per-application
breakdown over its 11 profiles, and the decision-table policies
(``superset_hybrid``, ``criticality``) that sit outside the golden
matrix.  SoA is the only array core, so this file extends the same
bit-identity contract to that whole surface: for every workload x
algorithm cell, a run with ``RunSpec(core="soa")`` must run on soa
(``result.core`` says so) and produce a summary identical to the
object core's, through the same harness path and at the harness's
default warmup cutoff.

The application profiles differ in exactly the sharing knobs the fused
event loop special-cases (migratory and producer-consumer fractions,
burst length, Zipf skew, prewarm), so a divergence here points at one
of those paths rather than at the commercial profiles' shape.
"""

from __future__ import annotations

import pytest

from repro.core import ALGORITHMS
from repro.harness.experiments import DEFAULT_WARMUP, WORKLOADS
from repro.harness.parallel import RunSpec, execute_spec
from repro.workloads import SPLASH2_APPS

#: Accesses per core: enough for every profile to reach steady-state
#: sharing after the warmup cutoff, small enough to keep the
#: 14 x 9 matrix inside the tier-1 budget.
SCALE = 100

WORKLOAD_MATRIX = list(WORKLOADS) + [
    "splash2/%s" % app for app in SPLASH2_APPS
]


def _spec(algorithm: str, workload: str, core: str) -> RunSpec:
    return RunSpec(
        algorithm=algorithm,
        workload=workload,
        accesses_per_core=SCALE,
        seed=0,
        warmup_fraction=DEFAULT_WARMUP,
        core=core,
    )


def test_matrix_covers_every_workload_profile():
    assert len(WORKLOAD_MATRIX) == 3 + 11
    assert {"lazy", "superset_hybrid", "criticality"} <= set(ALGORITHMS)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("workload", WORKLOAD_MATRIX)
def test_soa_matches_object(workload, algorithm):
    reference = execute_spec(_spec(algorithm, workload, "object"))
    soa = execute_spec(_spec(algorithm, workload, "soa"))
    # A soa refusal falls back to the object core, which would then be
    # compared with itself.
    assert reference.core == "object"
    assert soa.core == "soa"
    # Every cell must drive snoops around the ring, or it would not
    # exercise the algorithm under test.
    assert reference.summary()["read_ring_transactions"] > 0
    assert soa.summary() == reference.summary()
