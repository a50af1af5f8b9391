"""Per-run core fallback on real out-of-envelope configurations.

``repro.sim.cores.build_core`` builds every run's machine: the
requested core (``soa`` by default), or the object core when that one
refuses the configuration.  soa refuses before it builds anything, so
each run is built and run exactly once, on one core; the result's
``core`` names it, and the first refusal of each reason in a process
prints one ``falling back to core=object`` line on stderr - never on
stdout.  ``filter_write_snoops`` (the presence filter) and the
metrics timeline are outside soa's envelope; a path-dependent topology
is inside it.
"""

from __future__ import annotations

import pytest

from repro.harness.cli import main
from repro.harness.experiments import run_experiment
from repro.harness.sweep import run_sweep
from repro.obs.runner import run_traced
from repro.registry import REGISTRY
from repro.sim.soa import SoaRingMultiprocessor
from repro.sim.system import RingMultiprocessor
from tests.unit.test_topology import _DynamicTopology

NOTICE = "falling back to core=object"

FILTER_NOTICE = (
    "flexsnoop: core=soa does not support: filter_write_snoops "
    "(presence-filter extension); falling back to core=object\n"
)

SWEEP = [
    "sweep", "filter_write_snoops", "--values", "false,true",
    "--scale", "60", "--jobs", "1", "--no-cache",
]


@pytest.fixture
def built(monkeypatch):
    """``(core, filter_write_snoops)`` of every machine built to
    completion, in order (a refused construction is not listed)."""
    machines = []
    for name, cls in (
        ("object", RingMultiprocessor),
        ("soa", SoaRingMultiprocessor),
    ):
        def init(self, config, *args, _name=name, _init=cls.__init__,
                 **kwargs):
            _init(self, config, *args, **kwargs)
            machines.append((_name, config.filter_write_snoops))

        monkeypatch.setattr(cls, "__init__", init)
    return machines


def _table(stdout: str) -> str:
    """A sweep's output below its header line (which names the cores)."""
    return stdout.split("\n", 1)[1]


def test_mixed_sweep_runs_each_point_once_on_its_own_core(built, capsys):
    assert main(SWEEP + ["--core", "soa"]) == 0
    mixed = capsys.readouterr()
    assert built == [("soa", False), ("object", True)]
    assert mixed.err == FILTER_NOTICE
    assert NOTICE not in mixed.out
    assert "core=soa,object]" in mixed.out.splitlines()[0]

    del built[:]
    assert main(SWEEP + ["--core", "object"]) == 0
    reference = capsys.readouterr()
    assert built == [("object", False), ("object", True)]
    assert reference.err == ""
    assert "core=object]" in reference.out.splitlines()[0]
    assert _table(mixed.out) == _table(reference.out)


def test_notice_prints_once_per_reason_per_process(capsys):
    assert main(SWEEP) == 0
    assert main(SWEEP) == 0
    assert capsys.readouterr().err == FILTER_NOTICE
    assert main([
        "sweep", "track_versions", "--values", "true",
        "--scale", "60", "--jobs", "1", "--no-cache",
    ]) == 0
    err = capsys.readouterr().err
    assert err.count(NOTICE) == 1
    assert "track_versions" in err


def test_pooled_sweep_falls_back_per_point(capfd):
    sweep = run_sweep(
        "filter_write_snoops", [False, True],
        accesses_per_core=60, jobs=2, core="soa",
    )
    assert [point.result.core for point in sweep.points] == [
        "soa", "object",
    ]
    # The worker that built the refused point printed the notice; the
    # spawn workers inherit the parent's stderr.
    captured = capfd.readouterr()
    assert captured.err.count(NOTICE) == 1
    assert NOTICE not in captured.out


def test_in_envelope_run_prints_no_notice(built, capsys):
    result = run_experiment("lazy", "specjbb", accesses_per_core=60)
    assert result.core == "soa"
    assert built == [("soa", False)]
    assert capsys.readouterr().err == ""


def test_run_traced_timeline_falls_back_by_the_same_rule(built, capsys):
    traced = run_traced(
        "lazy", "specjbb", accesses_per_core=60, sample_window=500
    )
    assert traced.core == traced.result.core == "object"
    assert traced.samples
    assert built == [("object", False)]
    err = capsys.readouterr().err
    assert err.count(NOTICE) == 1
    assert "tracing.sample_window" in err

    del built[:]
    untimed = run_traced("lazy", "specjbb", accesses_per_core=60)
    assert untimed.core == "soa"
    assert built == [("soa", False)]
    assert capsys.readouterr().err == ""
    assert untimed.summary() == traced.summary()


def test_cli_run_runs_a_path_dependent_topology_on_soa(built, capsys):
    REGISTRY.register(
        "topology",
        "oddfirst",
        lambda config: _DynamicTopology(config.num_cmps),
    )
    try:
        argv = ["run", "--topology", "oddfirst", "--scale", "60"]
        assert main(argv) == 0
        default = capsys.readouterr()
        assert built == [("soa", False)]
        assert main(argv + ["--core", "object"]) == 0
        reference = capsys.readouterr()
    finally:
        REGISTRY.unregister("topology", "oddfirst")
    assert default.err == reference.err == ""
    assert default.out == reference.out
    assert "exec time" in default.out
