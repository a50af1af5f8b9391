"""CLI fallback when a requested core rejects the configuration.

The array core (``soa``) raises ``SoaUnsupportedError`` at
construction for configurations outside its envelope.  The CLI must
not die with a traceback: it falls back to ``core=object`` with a
one-line stderr notice, unless ``--strict-core`` asks for the hard
error (clean message, exit 2).  The envelope flags are not yet
CLI-exposed, so these tests inject the refusal at the
``run_experiment`` seam - the CLI behavior under test is identical.
"""

from __future__ import annotations

import pytest

import repro.harness.cli as cli
from repro.sim.soa import SoaUnsupportedError


@pytest.fixture
def refusing_run_experiment(monkeypatch):
    """``run_experiment`` that refuses array cores the way an
    out-of-envelope construction does, recording each call's core."""
    calls = []
    real = cli.run_experiment

    def fake(algorithm, workload, core="object", **kwargs):
        calls.append(core)
        if core != "object":
            raise SoaUnsupportedError(
                "core=%s does not support: link_occupancy; "
                "use core=object" % core
            )
        return real(
            algorithm, workload, core=core, accesses_per_core=30, seed=1
        )

    monkeypatch.setattr(cli, "run_experiment", fake)
    return calls


def test_run_falls_back_to_object_with_warning(
    refusing_run_experiment, capsys
):
    exit_code = cli.main(["run", "--core", "soa", "--scale", "30"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert refusing_run_experiment == ["soa", "object"]
    assert "falling back to core=object" in captured.err
    assert captured.err.count("\n") == 1
    assert "exec time" in captured.out


def test_strict_core_keeps_the_hard_error(refusing_run_experiment, capsys):
    exit_code = cli.main(
        ["run", "--core", "soa", "--strict-core", "--scale", "30"]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert refusing_run_experiment == ["soa"]
    assert "does not support" in captured.err
    assert "falling back" not in captured.err


def test_object_core_error_is_never_swallowed_by_fallback(
    monkeypatch, capsys
):
    """A refusal with core=object already selected cannot fall back;
    it surfaces as the clean exit-2 error."""

    def always_refuse(*args, **kwargs):
        raise SoaUnsupportedError("core=soa does not support: tracing")

    monkeypatch.setattr(cli, "run_experiment", always_refuse)
    exit_code = cli.main(["run", "--scale", "30"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "does not support" in captured.err
