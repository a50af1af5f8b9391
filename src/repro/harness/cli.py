"""Command-line interface: ``flexsnoop``.

Examples::

    flexsnoop run --algorithm superset_agg --workload splash2
    flexsnoop figure 6 --jobs 4
    flexsnoop figure 9 --scale 1000
    flexsnoop figure saturation --scale 800 --jobs 4
    flexsnoop sweep ring.link_occupancy --values 0,15,30,60
    flexsnoop table 1
    flexsnoop report --scale 1000 --out report.md
    flexsnoop trace record --algorithm subset --workload specjbb \
        --out jbb-trace.jsonl --audit
    flexsnoop trace record --algorithm lazy --workload file:jbb.jsonl \
        --out run.jsonl
    flexsnoop trace show jbb-trace.jsonl --address 0x2a40 --limit 5
    flexsnoop trace audit jbb-trace.jsonl
    flexsnoop trace workload --workload specjbb --out jbb.jsonl
    flexsnoop trace convert --format gem5 --in mem.trace --out mem.jsonl
    flexsnoop run --algorithm subset --workload file:mem.jsonl
    flexsnoop cache info
    flexsnoop cache prune --max-size 256M
    flexsnoop cache clear
    flexsnoop profile --algorithm exact --workload specweb --top 20

Matrix commands (``figure``, ``report``) fan independent simulations
out over worker processes (``--jobs``, default: one per CPU) and
memoize completed runs in a persistent cache under
``$FLEXSNOOP_CACHE_DIR`` (default ``~/.cache/flexsnoop``); pass
``--no-cache`` to bypass it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.analytical import AnalyticalParams, table1, table3
from repro.harness.experiments import (
    MAIN_ALGORITHMS,
    ExperimentMatrix,
    format_accuracy_table,
    format_by_workload,
    run_experiment,
)
from repro.harness.result_cache import ResultCache
from repro.registry import REGISTRY, UnknownComponentError
from repro.sim.cores import DEFAULT_CORE


def _make_cache(args: argparse.Namespace) -> ResultCache:
    return ResultCache(enabled=not getattr(args, "no_cache", False))


def _parse_size(text: str) -> int:
    """Parse a byte size with an optional K/M/G suffix (``"256M"``)."""
    raw = text.strip()
    multiplier = 1
    if raw and raw[-1].lower() in ("k", "m", "g"):
        multiplier = {
            "k": 1024, "m": 1024 ** 2, "g": 1024 ** 3,
        }[raw[-1].lower()]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "bad size %r (expect e.g. 4096, 64K, 256M, 1G)" % text
        )
    if value < 0:
        raise argparse.ArgumentTypeError("size must be >= 0: %r" % text)
    return int(value * multiplier)


def _all_algorithm_names() -> List[str]:
    """Every registered algorithm, paper order first, extensions after.

    The registry sorts alphabetically; sweeps and figure matrices read
    better with the paper's seven main-comparison algorithms leading
    in their Section 6 order, followed by the post-paper additions
    (``superset_hybrid``, ``criticality``, entry-point plugins).
    """
    ordered = list(MAIN_ALGORITHMS)
    for name in REGISTRY.names("algorithm"):
        if name not in ordered:
            ordered.append(name)
    return ordered


def _parse_algorithm_list(text: str) -> List[str]:
    """Parse a comma-separated ``--algorithms`` value.

    The word ``all`` (any case) expands to every registered algorithm
    via :func:`_all_algorithm_names`; duplicates are dropped while
    preserving first-mention order.  Unknown names are *not* rejected
    here - they resolve through the registry at execution time, which
    also sees entry-point plugins and produces the uniform "unknown
    algorithm" error.
    """
    expanded: List[str] = []
    for item in text.split(","):
        name = item.strip()
        if not name:
            continue
        if name.lower() == "all":
            for known in _all_algorithm_names():
                if known not in expanded:
                    expanded.append(known)
        elif name not in expanded:
            expanded.append(name)
    return expanded


def _add_component_options(
    parser: argparse.ArgumentParser,
    default_algorithm: str,
    default_workload: str,
) -> None:
    """Algorithm/workload/predictor selection flags.

    Names are NOT constrained with argparse ``choices``: they resolve
    through the component registry at execution time (which also sees
    entry-point plugins), and an unknown name produces the registry's
    uniform "unknown <kind> ...; known: ..." error via main()'s
    handler, exit status 2.
    """
    parser.add_argument(
        "--algorithm",
        default=default_algorithm,
        help="algorithm name (known: %s)"
        % ", ".join(REGISTRY.names("algorithm")),
    )
    parser.add_argument(
        "--workload",
        default=default_workload,
        help="workload source spec: a registered name (known: %s) or "
        "file:PATH / gem5:PATH / champsim:PATH for trace replay"
        % ", ".join(REGISTRY.names("workload")),
    )
    parser.add_argument(
        "--predictor",
        default=None,
        help="named predictor config (known: %s; default: the "
        "algorithm's paper default)" % ", ".join(REGISTRY.names("predictor")),
    )


def _add_topology_option(
    parser: argparse.ArgumentParser, with_num_cmps: bool = False
) -> None:
    parser.add_argument(
        "--topology",
        default=None,
        help="snoop topology (known: %s; default: the machine's "
        "single embedded ring)" % ", ".join(REGISTRY.names("topology")),
    )
    if with_num_cmps:
        parser.add_argument(
            "--num-cmps",
            type=int,
            default=0,
            help="reshape the synthetic workload across this many "
            "CMPs (0 = the workload's own geometry; defaults to 16 "
            "when --topology hier_ring is selected)",
        )


def _resolved_num_cmps(args: argparse.Namespace) -> int:
    """``--num-cmps``, defaulted to the two-level reference machine.

    An unset ``--num-cmps`` combined with ``--topology hier_ring``
    means the 16-CMP machine of the hierarchical evaluation rather
    than the workload's 8-CMP paper geometry, which would leave the
    hierarchy nearly degenerate (local rings of two).
    """
    num_cmps = getattr(args, "num_cmps", 0)
    topology = getattr(args, "topology", None)
    if not num_cmps and topology is not None:
        try:
            canonical = REGISTRY.canonical("topology", topology)
        except UnknownComponentError:
            return num_cmps  # surfaced with the uniform error later
        if canonical == "hier_ring":
            return 16
    return num_cmps


def _add_core_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--core",
        default=DEFAULT_CORE,
        help="simulation-core implementation (known: %s; default: %s; "
        "all produce bit-identical summaries, and a run the requested "
        "core does not support runs on object, with a notice on "
        "stderr)" % (", ".join(REGISTRY.names("core")), DEFAULT_CORE),
    )


def _add_matrix_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes for the simulation matrix "
        "(0 = one per CPU, 1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent result cache",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(
        args.algorithm,
        args.workload,
        predictor=args.predictor,
        accesses_per_core=args.scale,
        seed=args.seed,
        core=args.core,
        topology=args.topology,
        num_cmps=_resolved_num_cmps(args),
    )
    print("algorithm : %s" % result.algorithm)
    print("workload  : %s" % result.workload)
    print("exec time : %d cycles" % result.exec_time)
    print("energy    : %.1f nJ" % result.total_energy)
    for key, value in sorted(result.stats.summary().items()):
        print("%-28s %s" % (key, value))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.number == "saturation":
        from repro.harness.saturation import (
            DEFAULT_THINK_SCALES,
            format_saturation,
            run_saturation,
        )

        try:
            scales = (
                [float(s) for s in args.think_scales.split(",")
                 if s.strip()]
                if args.think_scales
                else DEFAULT_THINK_SCALES
            )
        except ValueError:
            print(
                "flexsnoop: --think-scales must be a comma-separated "
                "list of positive floats, got %r" % args.think_scales,
                file=sys.stderr,
            )
            return 2
        try:
            targets = (
                [float(s) for s in args.target_rates.split(",")
                 if s.strip()]
                if args.target_rates
                else None
            )
        except ValueError:
            print(
                "flexsnoop: --target-rates must be a comma-separated "
                "list of positive floats, got %r" % args.target_rates,
                file=sys.stderr,
            )
            return 2
        algorithms = _parse_algorithm_list(args.algorithms)
        if not algorithms:
            print(
                "flexsnoop: --algorithms is empty (expect a comma "
                "list of algorithm names, or 'all')",
                file=sys.stderr,
            )
            return 2
        curves = run_saturation(
            algorithms=algorithms,
            topologies=[t for t in args.topologies.split(",") if t],
            workload=args.workload,
            think_scales=scales,
            target_rates=targets,
            accesses_per_core=args.scale,
            seed=args.seed,
            link_occupancy=args.link_occupancy,
            serialize_snoop_port=not args.no_serialize_port,
            num_cmps=getattr(args, "num_cmps", 0),
            jobs=args.jobs,
            cache=_make_cache(args),
            core=args.core,
        )
        print(format_saturation(curves, knee_factor=args.knee_factor))
        return 0
    if args.number == "criticality":
        # Criticality-aware snooping vs the forwarding extremes (Lazy,
        # Eager) and the strongest predictor baseline (Exact): the
        # fig6/fig8 views where the criticality escalation shows up.
        # --think-scale < 1 re-paces the workloads into the loaded
        # regime, where retries and MSHR queueing (the criticality
        # inputs) actually occur.
        algorithms = ("lazy", "eager", "exact", "criticality")
        matrix = ExperimentMatrix(
            accesses_per_core=args.scale,
            seed=args.seed,
            algorithms=algorithms,
            jobs=args.jobs,
            result_cache=_make_cache(args),
            core=args.core,
            topology=args.topology,
            num_cmps=_resolved_num_cmps(args),
            think_scale=args.think_scale,
        )
        suffix = (
            ""
            if args.think_scale == 1.0
            else " [loaded: think_scale=%g]" % args.think_scale
        )
        print(
            format_by_workload(
                "Criticality: snoop operations per read snoop request"
                + suffix,
                matrix.fig6_snoops_per_request(),
            )
        )
        print()
        print(
            format_by_workload(
                "Criticality: execution time (normalized to Lazy)"
                + suffix,
                matrix.fig8_execution_time(),
                fmt="%6.3f",
            )
        )
        return 0
    if args.number == "topology":
        from repro.harness.experiments import (
            compare_topologies,
            format_topology_comparison,
        )

        table = compare_topologies(
            accesses_per_core=args.scale,
            seed=args.seed,
            num_cmps=_resolved_num_cmps(args),
            jobs=args.jobs,
            result_cache=_make_cache(args),
            core=args.core,
        )
        print(format_topology_comparison(table))
        return 0
    try:
        number = int(args.number)
    except ValueError:
        print(
            "unknown figure %r (know 6-11, 'topology', 'saturation' "
            "and 'criticality')" % args.number,
            file=sys.stderr,
        )
        return 2
    matrix = ExperimentMatrix(
        accesses_per_core=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        result_cache=_make_cache(args),
        core=args.core,
        topology=args.topology,
        num_cmps=_resolved_num_cmps(args),
    )
    if number == 6:
        print(
            format_by_workload(
                "Figure 6: snoop operations per read snoop request",
                matrix.fig6_snoops_per_request(),
            )
        )
    elif number == 7:
        print(
            format_by_workload(
                "Figure 7: ring read messages (normalized to Lazy)",
                matrix.fig7_read_messages(),
            )
        )
    elif number == 8:
        print(
            format_by_workload(
                "Figure 8: execution time (normalized to Lazy)",
                matrix.fig8_execution_time(),
                fmt="%6.3f",
            )
        )
    elif number == 9:
        print(
            format_by_workload(
                "Figure 9: snoop-traffic energy (normalized to Lazy)",
                matrix.fig9_energy(),
                fmt="%6.3f",
            )
        )
    elif number == 10:
        table = matrix.fig10_sensitivity()
        print("Figure 10: execution-time sensitivity to predictor size")
        for workload, by_algorithm in table.items():
            for algorithm, by_predictor in by_algorithm.items():
                for predictor, value in by_predictor.items():
                    print(
                        "%-9s %-13s %-9s %6.3f"
                        % (workload, algorithm, predictor, value)
                    )
    elif number == 11:
        print(format_accuracy_table(matrix.fig11_accuracy()))
    else:
        print(
            "unknown figure %d (know 6-11, 'topology', 'saturation' "
            "and 'criticality')" % number,
            file=sys.stderr,
        )
        return 2
    return 0


def _parse_sweep_value(text: str):
    """Parse one ``--values`` item: int, float, bool or bare string."""
    raw = text.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.sweep import run_sweep

    values = [
        _parse_sweep_value(v) for v in args.values.split(",") if v.strip()
    ]
    if not values:
        print("flexsnoop: --values is empty", file=sys.stderr)
        return 2
    try:
        sweep = run_sweep(
            args.field,
            values,
            algorithm=args.algorithm,
            workload=args.workload,
            accesses_per_core=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            cache=_make_cache(args),
            core=args.core,
        )
    except ValueError as exc:
        # The field resolver rejects typos with the full list of
        # valid dotted paths; surface that verbatim.
        print("flexsnoop: %s" % exc, file=sys.stderr)
        return 2
    try:
        series = sweep.series(args.metric)
    except AttributeError:
        print(
            "flexsnoop: unknown metric %r (expect a SimulationResult "
            "or RunStats attribute, e.g. exec_time, total_energy, "
            "mean_read_miss_latency)" % args.metric,
            file=sys.stderr,
        )
        return 2
    # The cores that ran, in point order: a point the requested core
    # refused ran on object.
    cores = dict.fromkeys(point.result.core for point in sweep.points)
    print(
        "sweep %s  [algorithm=%s workload=%s core=%s]"
        % (args.field, args.algorithm, args.workload, ",".join(cores))
    )
    print("%16s  %s" % ("value", args.metric))
    for value in values:
        metric = series[value]
        rendered = (
            "%.4f" % metric if isinstance(metric, float) else metric
        )
        print("%16s  %s" % (value, rendered))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    params = AnalyticalParams(num_nodes=args.nodes)
    if args.number == 1:
        rows = table1(params)
        print("Table 1: baseline algorithms (analytical, N=%d)" % args.nodes)
    elif args.number == 3:
        rows = table3(params)
        print(
            "Table 3: Flexible Snooping algorithms (analytical, N=%d)"
            % args.nodes
        )
    else:
        print("unknown table %d (know 1 and 3)" % args.number, file=sys.stderr)
        return 2
    print(
        "%-14s %10s %8s %9s"
        % ("algorithm", "latency", "snoops", "messages")
    )
    for name, row in rows.items():
        print(
            "%-14s %10.1f %8.2f %9.2f"
            % (name, row["latency"], row["snoops"], row["messages"])
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.report import render_report

    matrix = ExperimentMatrix(
        accesses_per_core=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        result_cache=_make_cache(args),
        core=args.core,
        topology=args.topology,
        num_cmps=_resolved_num_cmps(args),
    )
    figures = (
        [int(f) for f in args.figures.split(",")]
        if args.figures
        else None
    )
    text = render_report(matrix, figures=figures)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print("wrote %s" % args.out)
    else:
        print(text)
    return 0


def _cmd_trace_workload(args: argparse.Namespace) -> int:
    from repro.workloads.io import save_trace
    from repro.workloads.source import resolve_source

    workload = resolve_source(
        args.workload, accesses_per_core=args.scale, seed=args.seed
    ).materialize()
    save_trace(workload, args.out)
    print(
        "wrote %s: %d cores, %d accesses"
        % (args.out, workload.num_cores, workload.total_accesses)
    )
    return 0


def _print_violations(violations) -> None:
    for violation in violations:
        print("  %s" % violation, file=sys.stderr)


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.obs.runner import run_traced
    from repro.obs.trace import JsonlStreamSink

    # Opened before the run: an unwritable --out fails fast.
    try:
        sink = JsonlStreamSink(args.out)
    except OSError as exc:
        print("flexsnoop: %s" % exc, file=sys.stderr)
        return 1
    traced = run_traced(
        args.algorithm,
        args.workload,
        predictor=args.predictor,
        accesses_per_core=args.scale,
        seed=args.seed,
        warmup_fraction=args.warmup,
        check_invariants=args.check_invariants,
        sample_window=args.sample_window,
        sink=sink,
        topology=args.topology,
        num_cmps=_resolved_num_cmps(args),
        audit=args.audit,
    )
    print(
        "wrote %s: %d event(s) across %d transaction(s)"
        % (args.out, traced.meta["num_events"], traced.transactions)
    )
    if traced.samples:
        print("timeline: %d sample(s), window %d cycles"
              % (len(traced.samples), args.sample_window))
    if traced.violations:
        print(
            "audit: %d violation(s)" % len(traced.violations),
            file=sys.stderr,
        )
        _print_violations(traced.violations)
        return 1
    if traced.violations is not None:
        print("audit: ok (%d transaction(s) validated)" % traced.transactions)
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    from repro.workloads.convert import convert_trace
    from repro.workloads.io import TraceFormatError

    try:
        num_cores, total = convert_trace(
            args.infile,
            args.out,
            args.format,
            cores_per_cmp=args.cores_per_cmp,
            line_bytes=args.line_bytes,
            ticks_per_cycle=args.ticks_per_cycle,
            name=args.name or None,
        )
    except (TraceFormatError, OSError) as exc:
        print("flexsnoop: %s" % exc, file=sys.stderr)
        return 1
    print(
        "wrote %s: %d cores, %d accesses (converted from %s %s)"
        % (args.out, num_cores, total, args.format, args.infile)
    )
    print("replay with: flexsnoop run --workload file:%s" % args.out)
    return 0


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from repro.obs.jsonl import TraceReader
    from repro.obs.render import render_timeline, select_events

    address = int(args.address, 0) if args.address else None
    # The file streams past the filter; only what is printed is kept.
    # A missing, unreadable or malformed file is one ``flexsnoop:``
    # line on stderr.
    try:
        reader = TraceReader(args.file)
        selection = select_events(
            reader,
            address=address,
            txn=args.txn,
            node=args.node,
            limit=args.limit,
        )
    except (ValueError, OSError) as exc:
        print("flexsnoop: %s" % exc, file=sys.stderr)
        return 1
    meta = reader.meta
    if meta:
        print(
            "trace: %s/%s  (%d of %d event(s) match)"
            % (
                meta.get("algorithm", "?"),
                meta.get("workload", "?"),
                selection.matched,
                selection.total,
            )
        )
    print(
        render_timeline(
            selection.events, limit=args.limit, elided=selection.elided
        )
    )
    return 0


def _cmd_trace_audit(args: argparse.Namespace) -> int:
    from repro.obs.audit import auditor_for
    from repro.obs.jsonl import TraceReader

    # The file streams through the online auditor; a bad line is one
    # ``flexsnoop:`` error, however many transactions passed before it.
    try:
        reader = TraceReader(args.file)
        auditor = auditor_for(reader.meta, num_cmps=args.num_cmps)
        feed = auditor.feed
        events = 0
        for event in reader:
            feed(event)
            events += 1
    except (ValueError, OSError) as exc:
        print("flexsnoop: %s" % exc, file=sys.stderr)
        return 1
    transactions = auditor.transactions
    violations = auditor.finish(reader)
    if violations:
        print("audit: %d violation(s)" % len(violations), file=sys.stderr)
        _print_violations(violations)
        return 1
    print(
        "audit: ok (%d event(s), %d transaction(s), num_cmps=%d)"
        % (events, transactions, auditor.num_cmps)
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache()
    if args.action == "info":
        info = cache.info()
        print("location : %s" % info["root"])
        print("entries  : %d" % info["entries"])
        print("size     : %.1f KiB" % (info["size_bytes"] / 1024.0))
        print("stale    : %d entry(ies) from older schemas" %
              info["stale_entries"])
        print("tmp files: %d orphaned temp file(s)" % info["tmp_files"])
        print("schema   : v%d (code %s)" % (
            info["schema"], info["code_version"],
        ))
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print("removed %d cached result(s) from %s" % (removed, cache.root))
        return 0
    if args.action == "prune":
        if args.max_size is None:
            print(
                "flexsnoop: cache prune requires --max-size",
                file=sys.stderr,
            )
            return 2
        stats = cache.prune(args.max_size)
        print(
            "removed %d entry(ies), freed %.1f KiB; cache now %.1f KiB"
            % (
                stats["removed"],
                stats["freed_bytes"] / 1024.0,
                stats["size_bytes"] / 1024.0,
            )
        )
        return 0
    print("unknown cache action %r" % args.action, file=sys.stderr)
    return 2


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    from repro.harness.bench import format_breakdown, subsystem_split

    profiler = cProfile.Profile()
    profiler.enable()
    # subsystem_split buckets time by the object core's modules.
    result = run_experiment(
        args.algorithm,
        args.workload,
        predictor=args.predictor,
        accesses_per_core=args.scale,
        seed=args.seed,
        core="object",
    )
    profiler.disable()
    print(
        "profiled %s/%s: %d accesses, %d events"
        % (
            result.algorithm,
            result.workload,
            result.stats.reads + result.stats.writes,
            result.events,
        )
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(format_breakdown(subsystem_split(stats)))
    if args.out:
        stats.dump_stats(args.out)
        print("wrote %s (open with pstats or snakeviz)" % args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexsnoop",
        description="Flexible Snooping (ISCA 2006) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one simulation")
    _add_component_options(run_parser, "lazy", "splash2")
    _add_core_option(run_parser)
    _add_topology_option(run_parser, with_num_cmps=True)
    run_parser.add_argument("--scale", type=int, default=2000,
                            help="accesses per core")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.set_defaults(func=_cmd_run)

    figure_parser = sub.add_parser(
        "figure", help="regenerate one of the paper's figures"
    )
    figure_parser.add_argument(
        "number",
        help="figure number (6-11), 'topology' for the "
        "ring-vs-hier_ring comparison matrix, 'saturation' for "
        "the loaded-regime injection sweep, or 'criticality' for "
        "the criticality-aware-snooping comparison matrix",
    )
    figure_parser.add_argument("--scale", type=int, default=2000)
    figure_parser.add_argument("--seed", type=int, default=0)
    _add_matrix_options(figure_parser)
    _add_core_option(figure_parser)
    _add_topology_option(figure_parser)
    saturation_group = figure_parser.add_argument_group(
        "figure saturation options"
    )
    saturation_group.add_argument(
        "--workload", default="splash2",
        help="workload swept across injection rates",
    )
    saturation_group.add_argument(
        "--algorithms", default="lazy,eager,oracle",
        help="comma-separated algorithms, one curve each; 'all' "
        "expands to every registered algorithm (currently: %s)"
        % ", ".join(REGISTRY.names("algorithm")),
    )
    saturation_group.add_argument(
        "--topologies", default="ring,hier_ring",
        help="comma-separated snoop topologies, one curve each",
    )
    saturation_group.add_argument(
        "--think-scales", default="",
        help="comma-separated think-time multipliers, e.g. "
        "1.0,0.5,0.25 (default: the built-in ladder)",
    )
    saturation_group.add_argument(
        "--target-rates", default="",
        help="closed-loop mode: comma-separated target ring "
        "transaction rates (txns per 1000 cycles per CMP); a "
        "calibration run converts each into a think scale",
    )
    saturation_group.add_argument(
        "--link-occupancy", type=int, default=600,
        help="cycles each ring link stays busy per crossing "
        "(the finite-capacity knob; 0 disables link contention; "
        "the default chokes the ring inside the built-in ladder)",
    )
    saturation_group.add_argument(
        "--no-serialize-port", action="store_true",
        help="leave the per-CMP snoop port infinitely wide",
    )
    saturation_group.add_argument(
        "--knee-factor", type=float, default=2.0,
        help="knee = first point whose latency exceeds this multiple "
        "of the lightest-load latency",
    )
    criticality_group = figure_parser.add_argument_group(
        "figure criticality options"
    )
    criticality_group.add_argument(
        "--think-scale", type=float, default=1.0,
        help="think-time multiplier for the criticality matrix "
        "(1.0 = native pacing; < 1 drives the loaded regime where "
        "retries and MSHR queueing occur)",
    )
    figure_parser.set_defaults(func=_cmd_figure)

    sweep_parser = sub.add_parser(
        "sweep",
        help="sweep one machine-config field and print a metric series",
    )
    sweep_parser.add_argument(
        "field",
        help="dotted MachineConfig field path, e.g. "
        "ring.link_occupancy or memory.local_round_trip (a typo "
        "lists every valid path)",
    )
    sweep_parser.add_argument(
        "--values", required=True,
        help="comma-separated swept values (int/float/true/false)",
    )
    sweep_parser.add_argument(
        "--metric", default="exec_time",
        help="SimulationResult or RunStats attribute to report "
        "(e.g. exec_time, total_energy, mean_read_miss_latency)",
    )
    sweep_parser.add_argument(
        "--algorithm", default="lazy",
        help="algorithm name (known: %s)"
        % ", ".join(REGISTRY.names("algorithm")),
    )
    sweep_parser.add_argument(
        "--workload", default="splash2",
        help="workload source spec (known: %s)"
        % ", ".join(REGISTRY.names("workload")),
    )
    sweep_parser.add_argument("--scale", type=int, default=800,
                              help="accesses per core")
    sweep_parser.add_argument("--seed", type=int, default=0)
    _add_matrix_options(sweep_parser)
    _add_core_option(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    table_parser = sub.add_parser(
        "table", help="print one of the paper's analytical tables"
    )
    table_parser.add_argument("number", type=int)
    table_parser.add_argument("--nodes", type=int, default=8)
    table_parser.set_defaults(func=_cmd_table)

    report_parser = sub.add_parser(
        "report", help="render the whole evaluation as one document"
    )
    report_parser.add_argument("--scale", type=int, default=1500)
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument(
        "--figures",
        default="",
        help="comma-separated figure numbers (default: 6,7,8,9,11)",
    )
    report_parser.add_argument("--out", default="")
    _add_matrix_options(report_parser)
    _add_core_option(report_parser)
    _add_topology_option(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    cache_parser = sub.add_parser(
        "cache",
        help="inspect, prune or clear the persistent result cache",
    )
    cache_parser.add_argument("action", choices=("info", "prune", "clear"))
    cache_parser.add_argument(
        "--max-size", type=_parse_size, default=None,
        help="prune: evict least-recently-used entries until the "
        "cache fits this budget (accepts K/M/G suffixes, e.g. 256M)",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    profile_parser = sub.add_parser(
        "profile",
        help="run one simulation under cProfile and print hot spots "
        "and the per-subsystem split",
    )
    _add_component_options(profile_parser, "exact", "specweb")
    profile_parser.add_argument("--scale", type=int, default=2000,
                                help="accesses per core")
    profile_parser.add_argument("--seed", type=int, default=0)
    profile_parser.add_argument("--top", type=int, default=25,
                                help="number of pstats rows to print")
    profile_parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "calls", "ncalls"),
    )
    profile_parser.add_argument(
        "--out", default="", help="also dump raw pstats data here"
    )
    profile_parser.set_defaults(func=_cmd_profile)

    trace_parser = sub.add_parser(
        "trace",
        help="record, inspect and audit transaction-level run traces "
        "(see docs/observability.md)",
    )
    trace_sub = trace_parser.add_subparsers(
        dest="trace_action", required=True
    )

    record_parser = trace_sub.add_parser(
        "record",
        help="run one simulation with tracing on and write the "
        "lifecycle events to a JSONL file",
    )
    _add_component_options(record_parser, "lazy", "splash2")
    _add_topology_option(record_parser, with_num_cmps=True)
    record_parser.add_argument("--scale", type=int, default=500,
                               help="accesses per core")
    record_parser.add_argument("--seed", type=int, default=0)
    record_parser.add_argument(
        "--warmup", type=float, default=0.0,
        help="warmup fraction (events during warmup are traced too)",
    )
    record_parser.add_argument(
        "--sample-window", type=int, default=0,
        help="metrics-timeline sampling window in simulated cycles "
        "(0 = no timeline)",
    )
    record_parser.add_argument(
        "--out", required=True,
        help="JSONL file the events stream to during the run",
    )
    record_parser.add_argument(
        "--audit", action="store_true",
        help="validate the recorded trace with the lifecycle "
        "auditors; exit 1 on any violation",
    )
    record_parser.add_argument(
        "--check-invariants", action="store_true",
        help="also enable the simulator's synchronous per-line "
        "protocol checks",
    )
    record_parser.set_defaults(func=_cmd_trace_record)

    show_parser = trace_sub.add_parser(
        "show",
        help="render a recorded trace as per-transaction timelines",
    )
    show_parser.add_argument("file")
    show_parser.add_argument(
        "--address", default="",
        help="only this line address (accepts 0x...)",
    )
    show_parser.add_argument("--txn", type=int, default=None,
                             help="only this transaction id")
    show_parser.add_argument(
        "--node", type=int, default=None,
        help="only transactions that touched this CMP node",
    )
    show_parser.add_argument(
        "--limit", type=int, default=None,
        help="render at most this many transactions",
    )
    show_parser.set_defaults(func=_cmd_trace_show)

    audit_parser = trace_sub.add_parser(
        "audit",
        help="replay a recorded trace through the per-transaction "
        "lifecycle validators; exit 1 on any violation",
    )
    audit_parser.add_argument("file")
    audit_parser.add_argument(
        "--num-cmps", type=int, default=0,
        help="ring size override (default: the trace's meta header)",
    )
    audit_parser.set_defaults(func=_cmd_trace_audit)

    workload_parser = trace_sub.add_parser(
        "workload", help="generate a workload trace file"
    )
    workload_parser.add_argument(
        "--workload",
        default="splash2",
        help="workload name (known: %s)"
        % ", ".join(REGISTRY.names("workload")),
    )
    workload_parser.add_argument("--scale", type=int, default=2000)
    workload_parser.add_argument("--seed", type=int, default=0)
    workload_parser.add_argument("--out", required=True)
    workload_parser.set_defaults(func=_cmd_trace_workload)

    convert_parser = trace_sub.add_parser(
        "convert",
        help="convert an external (gem5/champsim) memory trace to "
        "the flexsnoop JSONL workload format for replay",
    )
    convert_parser.add_argument(
        "--format", required=True, choices=("gem5", "champsim"),
        help="external trace dialect",
    )
    convert_parser.add_argument(
        "--in", dest="infile", required=True,
        help="external trace file to read",
    )
    convert_parser.add_argument(
        "--out", required=True,
        help="flexsnoop-trace JSONL file to write",
    )
    convert_parser.add_argument(
        "--cores-per-cmp", type=int, default=1,
        help="CMP geometry to stamp on the converted workload "
        "(cpu ids pad up to whole CMPs)",
    )
    convert_parser.add_argument(
        "--line-bytes", type=int, default=64,
        help="cache-line size used to map byte addresses to lines",
    )
    convert_parser.add_argument(
        "--ticks-per-cycle", type=int, default=1000,
        help="gem5 tick-to-cycle divisor for think times",
    )
    convert_parser.add_argument(
        "--name", default="",
        help="workload display name (default: derived from the file)",
    )
    convert_parser.set_defaults(func=_cmd_trace_convert)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownComponentError as exc:
        print("flexsnoop: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
