"""One benchmark leg: run one ``flexsnoop`` command in this process.

Spawned by ``run.py`` in a fresh interpreter for every command of every
leg, so each leg pays the import cost a user's first run pays::

    python3 benchmarks/e2e/leg.py --report R.json --spawned-at T \\
        [--trace] [--core NAME] -- figure 8 --scale 300 ...

Everything after ``--`` is the ``flexsnoop`` argv, passed unchanged to
:func:`repro.harness.cli.main`.  The command's stdout and stderr are
this process's own; the parent captures them to files.  The JSON report
written to ``--report`` holds the timings (all ``time.monotonic()``,
comparable with the parent's clock), the core provenance, and - with
``--trace`` - one span per call into each wrapped layer, with the
counts seen at that boundary (a core's ``run`` records the simulated
statistics of its cell).

Tracing wraps public callables from this file only; no program code
changes.  A span is ``[name, start, end, parent, cell]``: ``parent`` is
the index of the enclosing span (``None`` for the root), ``cell`` the
id of the simulation cell the call belongs to.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import os
import sys
import time
import types
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="leg.py")
    parser.add_argument("--report", required=True, help="JSON report path")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() at spawn")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("--core", help="the requested core, for provenance")
    parser.add_argument("command", nargs="*", help="flexsnoop argv, after --")
    return parser.parse_args(argv)


def cell_id(spec: Any) -> str:
    """Core-independent id of one simulation cell (a ``RunSpec``)."""
    return "%s/%s/%s/n%d/seed%d/%s/cmps%d/think%g/warm%g" % (
        spec.algorithm, spec.workload, spec.predictor,
        spec.accesses_per_core, spec.seed, spec.topology or "ring",
        spec.num_cmps, spec.think_scale, spec.warmup_fraction,
    )


def _arguments(function: Callable[..., Any], args: Any, kwargs: Any) -> Any:
    """A call's arguments as attributes, defaults filled in."""
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    return types.SimpleNamespace(**bound.arguments)


def result_digest(result: Any) -> str:
    """SHA-256 of a cell's ``summary()`` plus the ``exec_time`` that
    figure 8 normalizes (a field of the result, not of the summary)."""
    text = json.dumps([result.summary(), result.exec_time], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tracer:
    """In-memory span recorder around the layers' public callables."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._receivers: Dict[int, int] = {}
        # Per-span facts recorded at the boundary (counts, errors).
        self.facts: Dict[int, Dict[str, Any]] = {}

    def _open(self, name: str, cell: Optional[str]) -> int:
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent][4]
        self.spans.append([name, time.monotonic(), None, parent, cell])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack.pop()

    def _fact(self, index: int, **facts: Any) -> None:
        self.facts.setdefault(index, {}).update(facts)

    def wrap(
        self,
        original: Callable[..., Any],
        name: Callable[..., str],
        cell: Optional[Callable[..., Optional[str]]] = None,
        before: Optional[Callable[..., Dict[str, Any]]] = None,
        after: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable[..., Any]:
        """``original`` with one span per call.

        ``name``/``cell``/``before`` see the call's arguments; ``after``
        sees ``(result, *args)``.  A call whose span would repeat the
        open span's name on the same receiver (a subclass ``__init__``
        calling its base's) is folded into the open span.  A generator
        does its work as it is consumed, so it is drained inside its
        span and handed back as an iterator over the drained items.
        """
        drain = inspect.isgeneratorfunction(original)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_name = name(*args, **kwargs)
            if self._stack:
                top = self._stack[-1]
                if (
                    self.spans[top][0] == span_name
                    and args
                    and self._receivers.get(top) == id(args[0])
                ):
                    return original(*args, **kwargs)
            index = self._open(
                span_name, cell(*args, **kwargs) if cell else None
            )
            if args:
                self._receivers[index] = id(args[0])
            if before is not None:
                self._fact(index, **before(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            except BaseException as exc:
                self._fact(index, error=type(exc).__name__)
                raise
            finally:
                self._close(index)
            if after is not None:
                self._fact(index, **after(result, *args, **kwargs))
            return result

        return traced


def _rebind(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (covers ``from x import f`` copies)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install_tracing(tracer: Tracer) -> Callable[..., int]:
    """Wrap every traced layer; returns the wrapped ``cli.main``."""
    import repro.harness.cli as cli
    import repro.harness.parallel as parallel
    import repro.obs.audit as audit
    import repro.obs.jsonl as jsonl
    import repro.obs.runner as runner
    from repro.registry import REGISTRY
    from repro.workloads.source import SyntheticSource

    def fixed(label: str) -> Callable[..., str]:
        return lambda *args, **kwargs: label

    def rebind(module: Any, attr: str, **hooks: Any) -> None:
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(original, **hooks))

    rebind(
        parallel, "execute_spec", name=fixed("parallel.execute_spec"),
        cell=lambda spec: cell_id(spec),
    )
    run_traced = runner.run_traced
    rebind(
        runner, "run_traced", name=fixed("obs.run_traced"),
        cell=lambda *args, **kwargs: cell_id(_arguments(run_traced, args, kwargs)),
        after=lambda traced, *a, **k: {"events": traced.meta["num_events"]},
    )
    rebind(jsonl, "write_trace", name=fixed("obs.write_trace"))
    rebind(jsonl, "read_trace", name=fixed("obs.read_trace"))
    audit.TraceAuditor.audit = tracer.wrap(
        audit.TraceAuditor.audit, name=fixed("obs.audit"),
        before=lambda auditor, events: {"events": len(events)},
    )
    SyntheticSource.materialize = tracer.wrap(
        SyntheticSource.materialize, name=fixed("workloads.materialize"),
        before=lambda source: {"generated": source._trace is None},
    )

    core_names = {}
    for name in REGISTRY.names("core"):
        factory = REGISTRY.get("core", name).factory
        if isinstance(factory, type):
            core_names[factory] = name

    def core_label(method: str) -> Callable[..., str]:
        def label(system: Any, *args: Any, **kwargs: Any) -> str:
            return "sim.%s.%s" % (core_names.get(type(system), "?"), method)
        return label

    def cell_stats(result: Any, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        stats = result.stats
        return {
            "digest": result_digest(result),
            "events": result.events,
            "exec_cycles": result.exec_time,
            "read_snoops": stats.read_snoops,
            "read_ring_crossings": stats.read_ring_crossings,
            "false_positives": stats.accuracy.false_positive,
            "false_negatives": stats.accuracy.false_negative,
            "reads_supplied_by_cache": stats.reads_supplied_by_cache,
            "read_miss_latency_sum": stats.read_miss_latency_sum,
            "read_miss_count": stats.read_miss_count,
            "retries": stats.retries,
            "squashes": stats.squashes,
            "mshr_queued": stats.mshr_queued,
        }

    seen = set()
    for cls in core_names:
        for klass in cls.__mro__:
            if klass in seen or not klass.__module__.startswith("repro"):
                continue
            seen.add(klass)
            for method in ("__init__", "run", "export_cache_image"):
                if method not in vars(klass):
                    continue
                setattr(klass, method, tracer.wrap(
                    vars(klass)[method], name=core_label(method),
                    after=cell_stats if method == "run" else None,
                ))
    return tracer.wrap(cli.main, name=fixed("cli.main"))


def main(argv: List[str]) -> int:
    opts = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import repro.harness.cli as cli
    from repro.registry import REGISTRY, UnknownComponentError

    REGISTRY.names("core")  # imports the core modules: set-up cost
    ready = time.monotonic()
    try:
        from repro.sim.jit import JIT_DISABLE_ENV, NUMBA_AVAILABLE
    except ImportError:  # a tree without the jit core
        JIT_DISABLE_ENV, NUMBA_AVAILABLE = "FLEXSNOOP_JIT_DISABLE", None
    canonical: Optional[str] = None
    if opts.core is not None:
        try:
            canonical = REGISTRY.canonical("core", opts.core)
        except UnknownComponentError:
            canonical = None
    tracer = Tracer() if opts.trace else None
    entry = install_tracing(tracer) if tracer is not None else cli.main
    started, cpu_started = time.monotonic(), time.process_time()
    try:
        # An empty command is a set-up probe: import, then exit.
        code = entry(opts.command) if opts.command else 0
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    done, cpu_done = time.monotonic(), time.process_time()
    sys.stdout.flush()
    report: Dict[str, Any] = {
        "spawned_at": opts.spawned_at,
        "ready": ready,
        "started": started,
        "done": done,
        "cpu_s": cpu_done - cpu_started,
        "exit_code": code,
        "repro_file": str(Path(sys.modules["repro"].__file__).resolve()),
        "requested_core": opts.core,
        "canonical_core": canonical,
        "numba_available": NUMBA_AVAILABLE,
        "jit_disable": os.environ.get(JIT_DISABLE_ENV, ""),
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["facts"] = {str(k): v for k, v in tracer.facts.items()}
    with open(opts.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
