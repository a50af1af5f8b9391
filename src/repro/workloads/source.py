"""The workload-source seam: lazy per-core access streams.

Every consumer of workload input - the simulator facade, the warmup
controller, the harness, the CLI - speaks :class:`WorkloadSource`
instead of a materialized :class:`~repro.workloads.trace.WorkloadTrace`.
A source knows its geometry (cores, CMP population) and can

* stream one core's accesses lazily (:meth:`WorkloadSource.core_stream`),
* report a **stable descriptor**: a JSON-able payload that identifies
  the access stream *content* independently of any in-memory object,
  so result-cache keys survive process boundaries,
* materialize the full trace when a consumer genuinely needs it.

Three built-in sources cover the pipeline:

* :class:`SyntheticSource` - wraps a
  :class:`~repro.workloads.synthetic.SharingProfile`; generation is
  deferred until the first consumer asks.  Descriptor: the profile's
  full field dict (generation is deterministic given the profile).
* :class:`FileReplaySource` - streams a ``flexsnoop-trace`` JSONL file
  (v2) from disk in bounded memory.  Descriptor: the file's
  SHA-256, so two copies of the same trace share cache entries.
* :class:`TraceSource` - wraps an already-materialized trace object
  (the pre-existing API).  No stable descriptor by default: identity
  of an anonymous in-memory trace is the object itself.

Spec strings accepted by :func:`resolve_source` (the single entry
point the harness, ``RunSpec`` and the CLI use):

* a registry workload name (``splash2``, ``specjbb``,
  ``splash2/barnes``, or any ``flexsnoop.workloads`` plugin) - the
  factory may return a profile, a trace, or a source;
* ``file:<path>`` - replay a saved ``flexsnoop-trace`` file;
* ``gem5:<path>`` / ``champsim:<path>`` - convert an external
  simulator trace on the fly (in memory; convert large files once
  with ``flexsnoop trace convert`` and replay via ``file:`` instead).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.registry import REGISTRY
from repro.workloads.synthetic import SharingProfile, generate_workload
from repro.workloads.trace import Access, WorkloadTrace

__all__ = [
    "WorkloadSource",
    "TraceSource",
    "SyntheticSource",
    "FileReplaySource",
    "as_source",
    "resolve_source",
    "descriptor_key",
]


def descriptor_key(descriptor: Dict[str, Any]) -> str:
    """SHA-256 hex digest of a source descriptor (canonical JSON)."""
    canonical = json.dumps(
        descriptor, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class WorkloadSource:
    """Base class: a named, shaped, lazily-streamable workload.

    Subclasses must provide the geometry properties and
    :meth:`materialize`; the default stream/prewarm/total
    implementations go through the materialized trace, so a minimal
    plugin source only implements one method.  ``streaming`` sources
    override :meth:`core_stream` (and friends) to avoid ever holding
    the whole trace in memory; the simulator facade checks the flag
    and feeds cores iterators instead of lists.
    """

    #: True when :meth:`core_stream` is bounded-memory and consumers
    #: should avoid :meth:`materialize` (the facade honours this).
    streaming: bool = False

    @property
    def name(self) -> str:
        raise NotImplementedError

    @property
    def num_cores(self) -> int:
        raise NotImplementedError

    @property
    def cores_per_cmp(self) -> int:
        raise NotImplementedError

    @property
    def num_cmps(self) -> int:
        return self.num_cores // self.cores_per_cmp

    def descriptor(self) -> Optional[Dict[str, Any]]:
        """Stable JSON-able identity of the access-stream content.

        ``None`` means "no stable identity": the result cache falls
        back to spec-field fingerprints.  (Prewarm images are keyed on
        the prewarm lines themselves, so they need no descriptor.)
        """
        return None

    def total_accesses(self) -> int:
        return self.materialize().total_accesses

    def prewarm(self) -> List[List[int]]:
        """Per-core prewarm line lists (may be empty)."""
        return self.materialize().prewarm

    def core_stream(self, core: int) -> Iterator[Access]:
        """Yield core ``core``'s accesses in issue order."""
        return iter(self.materialize().traces[core])

    def materialize(self) -> WorkloadTrace:
        raise NotImplementedError


class TraceSource(WorkloadSource):
    """A source wrapping an already-materialized trace.

    ``descriptor`` is ``None`` unless the caller supplies one (the
    external-trace converters do: they know the source file's hash).
    """

    def __init__(
        self,
        trace: WorkloadTrace,
        descriptor: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._trace = trace
        self._descriptor = descriptor

    @property
    def name(self) -> str:
        return self._trace.name

    @property
    def num_cores(self) -> int:
        return self._trace.num_cores

    @property
    def cores_per_cmp(self) -> int:
        return self._trace.cores_per_cmp

    def descriptor(self) -> Optional[Dict[str, Any]]:
        return self._descriptor

    def materialize(self) -> WorkloadTrace:
        return self._trace

    def __repr__(self) -> str:
        return "TraceSource(%r)" % (self._trace.name,)


class SyntheticSource(WorkloadSource):
    """Deferred synthetic generation from a :class:`SharingProfile`.

    The profile fully determines the generated trace (generation is
    seeded), so the descriptor is simply the profile's field dict and
    two sources built from equal profiles are interchangeable - the
    result cache treats them as the same workload without ever
    generating just to compare.
    """

    def __init__(self, profile: SharingProfile) -> None:
        self.profile = profile
        self._trace: Optional[WorkloadTrace] = None

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def num_cores(self) -> int:
        return self.profile.num_cores

    @property
    def cores_per_cmp(self) -> int:
        return self.profile.cores_per_cmp

    def descriptor(self) -> Dict[str, Any]:
        import dataclasses

        return {
            "kind": "synthetic",
            "profile": dataclasses.asdict(self.profile),
        }

    def materialize(self) -> WorkloadTrace:
        if self._trace is None:
            self._trace = generate_workload(self.profile)
        return self._trace

    def __repr__(self) -> str:
        return "SyntheticSource(%r)" % (self.profile.name,)


class FileReplaySource(WorkloadSource):
    """Bounded-memory replay of a saved ``flexsnoop-trace`` file.

    Construction performs one streaming scan of the file
    (:func:`repro.workloads.io.scan_trace`): it validates the format,
    indexes each core's record offsets, collects the prewarm lists and
    hashes the content - everything later consumers need - without
    ever building the access lists.  :meth:`core_stream` then opens
    its own handle and decodes one record chunk at a time, so peak
    memory is O(chunk), independent of trace length.
    """

    streaming = True

    def __init__(self, path: Union[str, Path]) -> None:
        from repro.workloads.io import scan_trace

        self._scan = scan_trace(path)

    @property
    def path(self) -> str:
        return self._scan.path

    @property
    def name(self) -> str:
        return self._scan.name

    @property
    def num_cores(self) -> int:
        return self._scan.num_cores

    @property
    def cores_per_cmp(self) -> int:
        return self._scan.cores_per_cmp

    def descriptor(self) -> Dict[str, Any]:
        return {
            "kind": "file",
            "name": self._scan.name,
            "cores_per_cmp": self._scan.cores_per_cmp,
            "num_cores": self._scan.num_cores,
            "sha256": self._scan.sha256,
        }

    def total_accesses(self) -> int:
        return self._scan.total_accesses

    def prewarm(self) -> List[List[int]]:
        return self._scan.prewarm

    def core_stream(self, core: int) -> Iterator[Access]:
        from repro.workloads.io import iter_core_accesses

        return iter_core_accesses(self._scan, core)

    def materialize(self) -> WorkloadTrace:
        from repro.workloads.io import load_trace

        return load_trace(self._scan.path)

    def __repr__(self) -> str:
        return "FileReplaySource(%r)" % (self._scan.path,)


def as_source(
    workload: Union[WorkloadSource, WorkloadTrace, SharingProfile],
) -> WorkloadSource:
    """Normalize any accepted workload value to a source."""
    if isinstance(workload, WorkloadSource):
        return workload
    if isinstance(workload, WorkloadTrace):
        return TraceSource(workload)
    if isinstance(workload, SharingProfile):
        return SyntheticSource(workload)
    raise TypeError(
        "expected WorkloadSource, WorkloadTrace or SharingProfile, "
        "got %r" % type(workload).__name__
    )


#: Spec-string schemes handled before registry lookup.
_SOURCE_SCHEMES = ("file", "gem5", "champsim")


def resolve_source(
    spec: Union[str, WorkloadSource, WorkloadTrace, SharingProfile],
    accesses_per_core: int = 0,
    seed: int = 0,
    num_cmps: int = 0,
    think_scale: float = 1.0,
) -> WorkloadSource:
    """Resolve a workload spec to a :class:`WorkloadSource`.

    Cheap for synthetic workloads - no trace is generated - so callers
    that only need geometry (``cores_per_cmp`` for a cache key) pay
    nothing.  ``file:`` specs pay one streaming scan of the file.
    Unknown registry names raise
    :class:`repro.registry.UnknownComponentError`.

    ``num_cmps`` re-spans a synthetic workload over that many CMPs
    (see :func:`repro.workloads.profiles.reshape_profile`);
    ``think_scale`` re-paces a synthetic workload's think times (the
    loaded-regime injection axis, see
    :attr:`repro.workloads.synthetic.SharingProfile.think_scale`).
    Recorded traces carry fixed geometry and pacing, so combining
    either with a ``file:`` / ``gem5:`` / ``champsim:`` spec or a
    pre-built trace is an error.
    """
    if num_cmps and not isinstance(spec, (str, SharingProfile)):
        raise ValueError(
            "num_cmps only reshapes synthetic workloads; %r carries "
            "its own geometry" % type(spec).__name__
        )
    if think_scale != 1.0 and not isinstance(spec, (str, SharingProfile)):
        raise ValueError(
            "think_scale only re-paces synthetic workloads; %r "
            "carries its own timing" % type(spec).__name__
        )
    if isinstance(spec, SharingProfile):
        if num_cmps:
            from repro.workloads.profiles import reshape_profile

            spec = reshape_profile(spec, num_cmps)
        if think_scale != 1.0:
            spec = spec.with_think_scale(think_scale)
        return as_source(spec)
    if not isinstance(spec, str):
        return as_source(spec)
    scheme, sep, arg = spec.partition(":")
    if sep and scheme in _SOURCE_SCHEMES:
        if num_cmps:
            raise ValueError(
                "num_cmps only reshapes synthetic workloads; %r "
                "replays a recorded trace" % spec
            )
        if think_scale != 1.0:
            raise ValueError(
                "think_scale only re-paces synthetic workloads; %r "
                "replays a recorded trace" % spec
            )
        if not arg:
            raise ValueError("workload spec %r needs a path" % spec)
        if scheme == "file":
            return FileReplaySource(arg)
        from repro.workloads.convert import external_trace_source

        return external_trace_source(arg, scheme)
    kwargs: Dict[str, Any] = {}
    if accesses_per_core:
        kwargs["accesses_per_core"] = accesses_per_core
    if seed:
        kwargs["seed"] = seed
    created = REGISTRY.create("workload", spec, **kwargs)
    if isinstance(created, SharingProfile):
        if num_cmps:
            from repro.workloads.profiles import reshape_profile

            created = reshape_profile(created, num_cmps)
        if think_scale != 1.0:
            created = created.with_think_scale(think_scale)
    else:
        if num_cmps:
            raise ValueError(
                "num_cmps only reshapes synthetic workloads; workload "
                "%r resolved to %r" % (spec, type(created).__name__)
            )
        if think_scale != 1.0:
            raise ValueError(
                "think_scale only re-paces synthetic workloads; "
                "workload %r resolved to %r"
                % (spec, type(created).__name__)
            )
    return as_source(created)
