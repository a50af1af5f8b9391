"""Pytest configuration for the test suite.

The suite is organized as:

* ``tests/unit`` - one module per library module, no simulation runs
  beyond microscopic ones.
* ``tests/property`` - hypothesis-driven invariant checks (cache vs a
  reference model, predictor guarantees).
* ``tests/integration`` - whole-system runs: single hand-built
  transactions with exact cycle assertions, contended workloads with
  coherence/version checking, calibration contracts, and
  cross-validation of the simulator against the analytical models.

One piece of global state is shared: the persistent result cache is
redirected away from the user's real ``~/.cache/flexsnoop`` into a
per-session temporary directory, so tests that exercise the cached
CLI/harness paths never read or pollute real cached results.  The
core fallback notice, printed once per refusal reason per process, is
reset for every test, so a test sees the notices of its own runs.
"""

from __future__ import annotations

import pytest

import repro.sim.cores as cores
from repro.harness.result_cache import CACHE_DIR_ENV


@pytest.fixture(scope="session")
def _session_cache_root(tmp_path_factory):
    return tmp_path_factory.mktemp("flexsnoop-cache")


@pytest.fixture(autouse=True)
def _isolated_result_cache(_session_cache_root, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(_session_cache_root))


@pytest.fixture(autouse=True)
def _fresh_fallback_notices(monkeypatch):
    monkeypatch.setattr(cores, "_reported", set())
