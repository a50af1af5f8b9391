"""The unsupported-configuration envelope, flag by flag.

The array core (``soa``) declares an explicit envelope (the
contention flags, tracing and the per-retire invariant checks are
inside it): every excluded feature must raise a clean, named
``SoaUnsupportedError`` at construction - never a mid-run crash or a
silently wrong result - while the object core runs the identical
configuration to completion.  One parametrized matrix pins each flag
to that contract, so adding an envelope hole or a new flag without
updating ``check_soa_supported`` fails loudly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import default_machine
from repro.core.algorithms import build_algorithm
from repro.obs.jsonl import encode_event
from repro.obs.trace import InMemorySink
from repro.registry import REGISTRY
from repro.sim.soa import SoaUnsupportedError
from repro.workloads.source import SyntheticSource
from repro.workloads.synthetic import SharingProfile


def _machine(**overrides):
    machine = default_machine(algorithm="lazy", cores_per_cmp=1, num_cmps=2)
    ring_overrides = {
        key: overrides.pop(key)
        for key in ("link_occupancy", "serialize_snoop_port")
        if key in overrides
    }
    tracing_overrides = {
        key: overrides.pop(key)
        for key in ("enabled", "sample_window")
        if key in overrides
    }
    if ring_overrides:
        machine = dataclasses.replace(
            machine, ring=dataclasses.replace(machine.ring, **ring_overrides)
        )
    if tracing_overrides:
        machine = dataclasses.replace(
            machine,
            tracing=dataclasses.replace(machine.tracing, **tracing_overrides),
        )
    if overrides:
        machine = dataclasses.replace(machine, **overrides)
    return machine


def _source():
    return SyntheticSource(
        SharingProfile(
            name="envelope",
            num_cores=2,
            cores_per_cmp=1,
            accesses_per_core=20,
            seed=5,
        )
    )


#: (flag id, machine kwargs, extra constructor kwargs) outside the soa
#: envelope.
ENVELOPE_FLAGS = [
    ("filter_write_snoops", {"filter_write_snoops": True}, {}),
    ("track_versions", {"track_versions": True}, {}),
    ("sample_window", {"sample_window": 50}, {}),
]

#: Observability inside the soa envelope: both cores run it, alike.
#: ``tracing`` resolves its sink from the machine config; the sink
#: handed in is the differential suites' path.
OBSERVABILITY_FLAGS = [
    ("check_invariants", {"check_invariants": True}, {}),
    ("tracing", {"enabled": True}, {}),
]

#: The contention models: inside the soa envelope.
CONTENTION_FLAGS = [
    ("link_occupancy", {"link_occupancy": True}, {}),
    ("serialize_snoop_port", {"serialize_snoop_port": True}, {}),
]


def _flag_id(entry) -> str:
    return entry[0]


def _create(core, entry):
    _, machine_kwargs, extra = entry
    return REGISTRY.create(
        "core",
        core,
        _machine(**machine_kwargs),
        build_algorithm("lazy"),
        _source(),
        **extra,
    )


@pytest.mark.parametrize(
    "entry", ENVELOPE_FLAGS, ids=lambda entry: "%s-soa" % entry[0]
)
def test_array_cores_raise_cleanly_outside_envelope(entry):
    with pytest.raises(SoaUnsupportedError) as excinfo:
        _create("soa", entry)
    message = str(excinfo.value)
    assert "core=soa does not support" in message
    assert entry[0] in message


@pytest.mark.parametrize("entry", CONTENTION_FLAGS, ids=_flag_id)
def test_soa_runs_contention(entry):
    result = _create("soa", entry).run()
    assert result.stats.reads + result.stats.writes > 0


@pytest.mark.parametrize("entry", OBSERVABILITY_FLAGS, ids=_flag_id)
def test_soa_runs_observability(entry):
    soa = _create("soa", entry)
    system = _create("object", entry)
    assert soa.run().summary() == system.run().summary()


def test_soa_and_object_emit_the_same_events_into_a_given_sink():
    lines = {}
    for core in ("object", "soa"):
        sink = InMemorySink()
        _create(core, ("tracing", {}, {"trace_sink": sink})).run()
        lines[core] = [encode_event(event) for event in sink.events]
    assert lines["soa"]
    assert lines["soa"] == lines["object"]


@pytest.mark.parametrize(
    "entry", ENVELOPE_FLAGS + CONTENTION_FLAGS + OBSERVABILITY_FLAGS,
    ids=_flag_id,
)
def test_object_core_runs_every_envelope_flag(entry):
    result = _create("object", entry).run()
    assert result.stats.reads + result.stats.writes > 0

