"""Benchmark environment fingerprinting.

The CPU count the fingerprint records must be the affinity-aware count
(what the benchmark can actually use), not the whole machine's, or a
pinned CI runner and a full host would look like the same environment.
"""

from __future__ import annotations

import os

from repro.harness.bench import _available_cpus, environment_fingerprint


def test_fingerprint_reports_affinity_aware_cpu_count():
    fingerprint = environment_fingerprint()
    assert fingerprint["cpu_count"] == _available_cpus()
    if hasattr(os, "sched_getaffinity"):
        assert fingerprint["cpu_count"] == len(os.sched_getaffinity(0))


def test_available_cpus_is_positive_and_bounded():
    count = _available_cpus()
    assert count >= 1
    assert count <= (os.cpu_count() or count)
