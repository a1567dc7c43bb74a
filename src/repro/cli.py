"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``list``     — show the nine benchmark workloads and their inputs.
* ``stats``    — Table 1 statistics for one workload.
* ``profile``  — run the profiler and write a profile JSON.
* ``place``    — run the placement algorithm over a profile JSON.
* ``run``      — full experiment (profile, place, simulate) for one
  workload, printing original/CCDP/random miss rates.
* ``map``      — ASCII cache-occupancy maps, natural vs CCDP.
* ``summary``  — profile/TRG summary statistics.
* ``tables``   — regenerate one of the paper's tables/figures or one of
  the extension studies (quality, overhead, hierarchy, sampling);
  the requested tables' experiments run as one deduplicated job graph,
  and ``--jobs N`` spreads its stage jobs over N processes under a
  fault-tolerant dispatcher (``--max-retries``,
  ``--task-timeout``, ``--fail-fast``/``--best-effort`` — see
  ``docs/RELIABILITY.md``).
* ``sweep``    — run the geometry x associativity x workload grid as
  one deduplicated job graph and write ``BENCH_sweep.json``: per-cell
  placed-vs-original miss rates, win/loss/tie verdicts, and the cells
  where associativity inverts CCDP's verdict (``docs/SWEEP.md``).
* ``bench``    — run Tables 1, 2 and 4 cold then warm over a temporary
  artifact store, read wall-clock and per-layer seconds from the span
  tree, and write ``BENCH_pipeline.json``; exits 1 unless the warm arm
  executes nothing, misses nothing, and reproduces the cold tables and
  placements bit for bit.
* ``report``   — run one workload's full pipeline under telemetry and
  emit a structured run report: span tree, counters, per-category miss
  attribution with conservation checks (``-o`` writes the JSON).
* ``serve``    — run the placement-as-a-service daemon: an HTTP front
  end over the same pipeline, with per-tenant stores, request
  coalescing through the job graph, and backpressure
  (``docs/SERVICE.md``).
* ``submit``   — submit one job to a running ``serve`` daemon, wait for
  it, and print or write the result.
* ``cache``    — inspect or maintain the persistent artifact store
  (``stats`` / ``gc`` / ``clear``).

The experiment commands (``run``, ``tables``, ``report``) consult the
artifact store by default — pass ``--no-cache`` to disable, or
``--cache-dir`` to point at a specific store root (falling back to the
``REPRO_CACHE_DIR`` environment variable, then ``.repro-cache``).  A
one-line ``[store] hits=... misses=...`` summary goes to stderr after
each cached command.  ``bench`` owns its store: a temporary one per
run, so its cold arm is always cold.
"""

from __future__ import annotations

import argparse
import sys

from .cache.config import CacheConfig
from .core.algorithm import CCDPPlacer
from .profiling.sampling import (
    DEFAULT_PERIOD,
    DEFAULT_WINDOW,
    sampled_profile,
    sampling_ratio,
)
from .profiling.serialize import (
    load_profile,
    save_placement,
    save_profile,
)
from .reporting.cachemap import MappedEntity, render_cache_map
from .runtime.driver import (
    build_placement,
    collect_stats,
    profile_workload,
    run_experiment,
)
from .store import ArtifactStore, resolve_cache_dir, use_store
from .trace.events import Category
from .workloads import make_workload, workload_names


def _parse_cache(text: str) -> CacheConfig:
    """Parse ``SIZE:LINE:ASSOC`` (e.g. ``8192:32:1``) into a config."""
    try:
        size, line, assoc = (int(part) for part in text.split(":"))
        return CacheConfig(size, line, assoc)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected SIZE:LINE:ASSOC, got {text!r} ({exc})"
        ) from None


def _add_cache_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        type=_parse_cache,
        default=CacheConfig(),
        help="cache geometry as SIZE:LINE:ASSOC (default 8192:32:1)",
    )


def cmd_list(_args) -> int:
    for name in workload_names():
        workload = make_workload(name)
        inputs = ", ".join(workload.inputs)
        heap = "heap-placed" if workload.place_heap else "no heap placement"
        print(f"{name:<10} inputs: {inputs:<28} [{heap}]")
    return 0


def cmd_stats(args) -> int:
    workload = make_workload(args.workload)
    input_name = args.input or workload.train_input
    stats = collect_stats(workload, input_name)
    print(f"{workload.name} / {input_name}")
    print(f"  instructions: {stats.instructions}")
    print(f"  loads: {stats.pct_loads:.1f}%  stores: {stats.pct_stores:.1f}%")
    for category in Category:
        print(f"  {category.label.lower():<7} refs: "
              f"{stats.pct_refs(category):.1f}%")
    print(f"  mallocs: {stats.alloc_count} (avg {stats.avg_alloc_size:.1f} B)")
    print(f"  frees:   {stats.free_count} (avg {stats.avg_free_size:.1f} B)")
    return 0


def cmd_profile(args) -> int:
    workload = make_workload(args.workload)
    input_name = args.input or workload.train_input
    if args.sample:
        profile = sampled_profile(workload, input_name, cache_config=args.cache)
        ratio = sampling_ratio(
            profile.total_accesses, DEFAULT_WINDOW, DEFAULT_PERIOD
        )
        print(f"sampled {ratio * 100:.1f}% of references")
    else:
        profile = profile_workload(workload, input_name, args.cache)
    save_profile(profile, args.output)
    print(
        f"profiled {workload.name}/{input_name}: "
        f"{len(profile.entities)} entities, "
        f"{len(profile.trg_columns.weight)} TRG edges -> {args.output}"
    )
    return 0


def cmd_place(args) -> int:
    profile = load_profile(args.profile)
    placer = CCDPPlacer(
        profile, cache_config=args.cache, place_heap=not args.no_heap
    )
    placement = placer.place()
    save_placement(placement, args.output)
    stats = placement.stats
    print(
        f"placed {stats.popular_entities} popular entities "
        f"({stats.merges} merges, {stats.heap_bins} heap bins) "
        f"-> {args.output}"
    )
    if args.script:
        from .reporting.linker_script import render_linker_script
        from .trace.events import Category as _Category

        sizes = {
            e.key.split(":", 1)[1]: e.size
            for e in profile.entities_of(_Category.GLOBAL)
        }
        with open(args.script, "w") as handle:
            handle.write(render_linker_script(placement, sizes))
        print(f"linker script -> {args.script}")
    return 0


def cmd_run(args) -> int:
    workload = make_workload(args.workload)
    test = workload.train_input if args.same_input else None
    result = run_experiment(
        workload,
        test_input=test,
        cache_config=args.cache,
        include_random=args.random,
        classify=True,
    )
    print(f"{workload.name}: train={result.train_input} "
          f"test={result.test_input} cache={args.cache.describe()}")
    rows = [("original", result.original.cache), ("ccdp", result.ccdp.cache)]
    if result.random:
        rows.append(("random", result.random.cache))
    for label, cache in rows:
        cats = "  ".join(
            f"{cat.label}={cache.category_miss_rate(cat):.2f}"
            for cat in Category
        )
        print(f"  {label:<9} D-Miss={cache.miss_rate:6.2f}%  {cats}")
    print(f"  reduction: {result.miss_reduction_pct:.1f}%")
    return 0


def cmd_map(args) -> int:
    workload = make_workload(args.workload)
    profile, placement = build_placement(workload, cache_config=args.cache)
    popularity = profile.popularity()

    def entities_for(offsets_of) -> list[MappedEntity]:
        entities = []
        for entity in profile.entities_of(Category.GLOBAL):
            offset = offsets_of(entity)
            if offset is None:
                continue
            entities.append(
                MappedEntity(
                    label=entity.key.split(":", 1)[1],
                    cache_offset=offset,
                    size=entity.size,
                    weight=popularity.get(entity.eid, 0),
                )
            )
        return entities

    # Natural: declaration order from the default data base.
    from .memory.layout import DATA_BASE
    from .memory.static_layout import layout_sequential

    ordered = sorted(
        profile.entities_of(Category.GLOBAL), key=lambda e: e.decl_index
    )
    natural = layout_sequential([(e.key, e.size) for e in ordered], DATA_BASE)
    print(
        render_cache_map(
            entities_for(lambda e: natural[e.key] % args.cache.size),
            args.cache,
            title=f"{workload.name} — natural placement",
        )
    )
    print()
    print(
        render_cache_map(
            entities_for(
                lambda e: placement.global_cache_offset(e.key.split(":", 1)[1])
            ),
            args.cache,
            title=f"{workload.name} — CCDP placement",
        )
    )
    return 0


def cmd_summary(args) -> int:
    from .analysis.trg_stats import render_summary, summarize_profile

    workload = make_workload(args.workload)
    input_name = args.input or workload.train_input
    profile = profile_workload(workload, input_name, args.cache)
    print(render_summary(
        summarize_profile(profile),
        title=f"{workload.name}/{input_name} profile summary",
    ))
    return 0


#: Tables whose experiments can share one job graph: the keyword batch
#: each contributes to
#: :func:`repro.experiments.common.prefetch_experiment_batches`.
_BATCHABLE_TABLES = {
    "table2": {"same_input": True},
    "table4": {"same_input": False},
}


def cmd_tables(args) -> int:
    import inspect

    from . import experiments
    from .experiments.common import (
        all_programs,
        prefetch_experiment_batches,
        set_parallel_jobs,
    )
    from .runtime import parallel
    from .runtime.faults import FaultToleranceError, RetryPolicy

    set_parallel_jobs(args.jobs)
    parallel.set_retry_policy(
        RetryPolicy(
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            best_effort=args.best_effort,
        )
    )
    parallel.reset_fanout_reports()
    runners = {
        "table1": experiments.run_table1,
        "table2": experiments.run_table2,
        "table3": experiments.run_table3,
        "table4": experiments.run_table4,
        "table5": experiments.run_table5,
        "figure3": experiments.run_figure3,
        "random": experiments.run_random_vs_natural,
        "geometry": experiments.run_geometry_sweep,
        "associative": experiments.run_associative_placement,
        "quality": experiments.run_quality_study,
        "overhead": experiments.run_overhead_report,
        "hierarchy": experiments.run_hierarchy_study,
        "sampling": experiments.run_sampling_study,
        "sensitivity": experiments.run_input_sensitivity,
    }
    programs = None
    if args.programs:
        programs = [name.strip() for name in args.programs.split(",")]
        unknown = sorted(set(programs) - set(workload_names()))
        if unknown:
            print(f"unknown programs: {', '.join(unknown)}", file=sys.stderr)
            return 2
    table_kwargs: dict[str, dict] = {}
    for table in args.table:
        kwargs = {}
        if programs:
            params = inspect.signature(runners[table]).parameters
            if "programs" in params:
                kwargs["programs"] = programs
            elif "program" in params and len(programs) == 1:
                kwargs["program"] = programs[0]
            else:
                print(
                    f"{table} does not take a program subset", file=sys.stderr
                )
                return 2
        table_kwargs[table] = kwargs
    batches = [
        dict(_BATCHABLE_TABLES[table], programs=programs or all_programs())
        for table in dict.fromkeys(args.table)
        if table in _BATCHABLE_TABLES
    ]
    try:
        # Requested tables that share experiments run as one job graph
        # whose common training stages execute exactly once.
        prefetch_experiment_batches(batches, jobs=args.jobs)
        for table in args.table:
            result = runners[table](**table_kwargs[table])
            print(result.render())
    except FaultToleranceError as exc:
        print(exc.report.render(), file=sys.stderr)
        print(f"tables {' '.join(args.table)} aborted: {exc}", file=sys.stderr)
        return 1
    report = parallel.combined_fanout_report()
    if report is not None and (
        report.degraded or report.retries or report.timeouts or report.crashes
    ):
        print(report.render(), file=sys.stderr)
    return 0


def cmd_jobs(args) -> int:
    from .experiments.common import all_programs, paper_cache
    from .runtime import parallel
    from .runtime.faults import FaultToleranceError, RetryPolicy
    from .runtime.parallel import ExperimentSpec
    from .sched.executor import run_experiments_dag
    from .sched.jobs import plan_experiments, probe_graph
    from .sched.status import render_jobs
    from .store import current_store

    parallel.set_retry_policy(
        RetryPolicy(
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            best_effort=args.best_effort,
        )
    )
    parallel.reset_fanout_reports()
    programs = all_programs()
    if args.programs:
        programs = [name.strip() for name in args.programs.split(",")]
        unknown = sorted(set(programs) - set(workload_names()))
        if unknown:
            print(f"unknown programs: {', '.join(unknown)}", file=sys.stderr)
            return 2
    specs = [
        ExperimentSpec(
            workload=name,
            same_input=_BATCHABLE_TABLES[table]["same_input"],
            cache_config=paper_cache(),
        )
        for table in dict.fromkeys(args.table)
        for name in programs
    ]
    if args.plan:
        graph, _aggregates = plan_experiments(specs)
        store = current_store()
        if store is not None:
            probe_graph(store, graph)
        print(render_jobs(graph))
        return 0
    try:
        _results, graph, summary = run_experiments_dag(specs, jobs=args.jobs)
    except FaultToleranceError as exc:
        print(exc.report.render(), file=sys.stderr)
        print(f"jobs aborted: {exc}", file=sys.stderr)
        return 1
    print(render_jobs(graph))
    print(summary.line())
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list (e.g. ``4096,8192``)."""
    try:
        values = tuple(
            int(part) for part in text.split(",") if part.strip()
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def cmd_sweep(args) -> int:
    from .runtime import parallel
    from .runtime.faults import FaultToleranceError, RetryPolicy
    from .sweep import (
        DEFAULT_WORKLOADS,
        QUICK_ASSOCIATIVITIES,
        QUICK_SIZES,
        QUICK_WORKLOADS,
        SWEEP_OUTPUT,
        build_grid,
        render_sweep,
        run_sweep,
        write_sweep,
    )

    parallel.set_retry_policy(
        RetryPolicy(
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            best_effort=args.best_effort,
        )
    )
    parallel.reset_fanout_reports()
    sizes = args.sizes
    assocs = args.assoc
    workloads = None
    if args.workloads:
        workloads = tuple(
            name.strip() for name in args.workloads.split(",") if name.strip()
        )
    if args.quick:
        sizes = sizes or QUICK_SIZES
        assocs = assocs or QUICK_ASSOCIATIVITIES
        workloads = workloads or QUICK_WORKLOADS
    try:
        if args.geometries:
            # Explicit SIZE:LINE:ASSOC points, already geometry-checked
            # by the argparse type; still validated as a grid so unknown
            # workloads and cost models fail here too.
            cells = []
            for config in args.geometries:
                cells.extend(
                    build_grid(
                        sizes=(config.size,),
                        associativities=(config.associativity,),
                        line_size=config.line_size,
                        workloads=workloads or DEFAULT_WORKLOADS,
                        cost_model=args.cost_model,
                    )
                )
            # Re-sort workload-major so shared stages stay adjacent.
            cells.sort(key=lambda cell: (cell.workload, cell.size,
                                         cell.line_size, cell.associativity))
        else:
            kwargs = {"cost_model": args.cost_model}
            if sizes:
                kwargs["sizes"] = sizes
            if assocs:
                kwargs["associativities"] = assocs
            if args.line:
                kwargs["line_size"] = args.line
            if workloads:
                kwargs["workloads"] = workloads
            cells = build_grid(**kwargs)
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    print(
        f"sweep: {len(cells)} cells "
        f"({len({c.workload for c in cells})} workloads x "
        f"{len({(c.size, c.line_size, c.associativity) for c in cells})} "
        f"geometries)"
    )
    try:
        payload = run_sweep(cells, jobs=args.jobs)
    except FaultToleranceError as exc:
        print(exc.report.render(), file=sys.stderr)
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return 1
    print(render_sweep(payload))
    print(payload["sched"])
    output = args.output or SWEEP_OUTPUT
    write_sweep(payload, output)
    print(f"sweep report written to {output}")
    report = parallel.combined_fanout_report()
    if report is not None and (
        report.degraded or report.retries or report.timeouts or report.crashes
    ):
        print(report.render(), file=sys.stderr)
    return 1 if payload["failed"] else 0


def cmd_bench(args) -> int:
    if args.adaptive:
        from .adaptive.bench import (
            ADAPTIVE_OUTPUT,
            render_adaptive_bench,
            run_adaptive_bench,
        )

        result = run_adaptive_bench(
            quick=args.quick,
            output=args.output or ADAPTIVE_OUTPUT,
            progress=print,
        )
        print(render_adaptive_bench(result))
        ok = (
            result["adaptive_beats_static"]
            and result["stationary_zero_replacements"]
            and result["stationary_identical"]
        )
        return 0 if ok else 1
    from .runtime.bench import DEFAULT_OUTPUT, render_bench, run_bench

    result = run_bench(
        quick=args.quick,
        jobs=args.jobs,
        output=args.output or DEFAULT_OUTPUT,
        progress=print,
    )
    print(render_bench(result))
    ok = (
        result["identical"]
        and result["warm_executed"] == 0
        and result["arms"]["warm"]["store"]["misses"] == 0
    )
    return 0 if ok else 1


def cmd_adapt(args) -> int:
    from .adaptive import run_adaptive
    from .trace.buffer import record_trace
    from .workloads.drift import DRIFT_WORKLOADS, drift_workload

    if args.workload in DRIFT_WORKLOADS:
        workload = drift_workload(args.workload)
    else:
        workload = make_workload(args.workload)
    input_name = args.input or (
        "test" if "test" in workload.inputs else workload.train_input
    )
    trace = record_trace(workload, input_name)
    result = run_adaptive(
        trace,
        args.cache,
        place_heap=workload.place_heap,
        window_events=args.window,
        cadence=args.cadence,
        history=args.history,
        drift_threshold=args.threshold,
        policy=args.policy,
    )
    print(f"{workload.name} / {input_name}: {trace.events} events")
    for record in result.windows:
        score = (
            f"{record.drift_score:.4f}" if record.drift_score is not None else "-"
        )
        marker = "  <- re-placed" if record.replaced else ""
        print(
            f"  window {record.index:>3} [{record.start}:{record.end}] "
            f"miss {record.miss_rate:6.2f}%  drift {score}{marker}"
        )
    final_score = next(
        (
            record.drift_score
            for record in reversed(result.windows)
            if record.drift_score is not None
        ),
        0.0,
    )
    print(
        f"[adapt] workload={workload.name} input={input_name} "
        f"policy={result.policy} windows={len(result.windows)} "
        f"replacements={result.replacements} "
        f"miss_rate={result.miss_rate:.3f} "
        f"drift_score={final_score:.4f} "
        f"inplace_updates={result.index_inplace_updates} "
        f"rebuilds={result.index_rebuilds}"
    )
    return 0


def cmd_report(args) -> int:
    from .obs import run_report

    report = run_report(
        args.workload,
        same_input=args.same_input,
        include_random=args.random,
        cache_config=args.cache,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"run report -> {args.output}")
        print(report.render())
    else:
        print(report.to_json())
        print(report.render(), file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    from .serve import Daemon, ServeConfig

    daemon = Daemon(
        ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_depth=args.queue_depth,
            batch_max=args.batch_max,
            drain_timeout=args.drain_timeout,
            cache_dir=args.cache_dir,
        )
    )
    daemon.run()
    print(daemon.store.summary_line(), file=sys.stderr)
    return 0


def cmd_submit(args) -> int:
    import json

    from .serve.client import ServeClient, ServeError

    client = ServeClient(
        host=args.host, port=args.port, tenant=args.tenant, timeout=args.timeout
    )
    params: dict = {}
    if args.kind != "sleep":
        if not args.workload:
            print("submit: --workload is required", file=sys.stderr)
            return 2
        params["workload"] = args.workload
        if args.input:
            params["input"] = args.input
        if args.cache is not None:
            params["cache"] = [
                args.cache.size,
                args.cache.line_size,
                args.cache.associativity,
            ]
        if args.kind == "experiment":
            params["same_input"] = args.same_input
    try:
        job_id = client.submit(args.kind, **params)
        print(f"[submit] job {job_id} queued", file=sys.stderr)
        record = client.result(job_id, timeout=args.timeout)
    except (ServeError, TimeoutError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    if record["state"] != "done":
        print(f"job {record['job_id']} failed: {record.get('error')}",
              file=sys.stderr)
        return 1
    result = record["result"]
    # For placement jobs -o writes the bare placement map, byte-compatible
    # with ``repro place`` output (load_placement reads either).
    payload = (
        result["placement"]
        if args.kind == "placement" and args.output
        else result
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
        print(f"result -> {args.output}", file=sys.stderr)
    else:
        print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_cache(args) -> int:
    store = ArtifactStore(resolve_cache_dir(args.cache_dir))
    if args.action == "stats":
        summary = store.stats()
        print(f"root: {summary.root}")
        print(
            f"entries: {summary.entries} "
            f"({summary.bytes} bytes, {summary.stale} stale)"
        )
        for kind in sorted(summary.by_kind):
            print(
                f"  {kind:<12} {summary.by_kind[kind]:>6}  "
                f"{summary.bytes_by_kind.get(kind, 0):>12} bytes"
            )
        if summary.trace_files:
            print(
                f"  {'trace-data':<12} {summary.trace_files:>6}  "
                f"{summary.trace_bytes:>12} bytes (memmapped trace columns)"
            )
    elif args.action == "gc":
        removed, bytes_removed = store.gc(
            max_bytes=args.max_bytes, max_age_days=args.max_age_days
        )
        print(f"gc: removed {removed} entries ({bytes_removed} bytes)")
    else:  # clear
        removed = store.clear()
        print(f"clear: removed {removed} entries")
    return 0


#: Commands that consult the artifact store (on unless ``--no-cache``).
_STORE_COMMANDS = frozenset({"run", "tables", "jobs", "sweep", "report", "adapt"})


def _add_retry_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="re-dispatches allowed per failing experiment shard (default 2)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None,
        help="per-shard wall-clock deadline in seconds "
             "(only enforced with --jobs > 1; default: none)",
    )
    effort = parser.add_mutually_exclusive_group()
    effort.add_argument(
        "--fail-fast", dest="best_effort", action="store_false",
        help="abort the whole run when any shard exhausts its retries "
             "(the default)",
    )
    effort.add_argument(
        "--best-effort", dest="best_effort", action="store_true",
        help="complete the remaining shards when one exhausts its retries "
             "and emit a partial-results report (exit 0)",
    )
    parser.set_defaults(best_effort=False)


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact store root (caching on by default; "
             "falls back to $REPRO_CACHE_DIR, then .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact store for this run",
    )


def _resolve_store(args) -> ArtifactStore | None:
    """The store a CLI invocation should run under, or None."""
    if args.command not in _STORE_COMMANDS or args.no_cache:
        return None
    return ArtifactStore(resolve_cache_dir(args.cache_dir))


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cache-Conscious Data Placement (ASPLOS'98) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark workloads")

    p_stats = sub.add_parser("stats", help="Table 1 statistics for a workload")
    p_stats.add_argument("workload", choices=workload_names())
    p_stats.add_argument("--input", help="input name (default: training input)")

    p_profile = sub.add_parser("profile", help="profile a workload to JSON")
    p_profile.add_argument("workload", choices=workload_names())
    p_profile.add_argument("--input")
    p_profile.add_argument("-o", "--output", required=True)
    p_profile.add_argument(
        "--sample", action="store_true", help="use time-sampled TRG profiling"
    )
    _add_cache_option(p_profile)

    p_place = sub.add_parser("place", help="compute a placement from a profile")
    p_place.add_argument("--profile", required=True)
    p_place.add_argument("-o", "--output", required=True)
    p_place.add_argument(
        "--no-heap", action="store_true", help="skip heap placement"
    )
    p_place.add_argument(
        "--script", help="also write a GNU-ld style linker script here"
    )
    _add_cache_option(p_place)

    p_run = sub.add_parser("run", help="full experiment for one workload")
    p_run.add_argument("workload", choices=workload_names())
    p_run.add_argument(
        "--same-input", action="store_true",
        help="measure the training input (Table 2 mode)",
    )
    p_run.add_argument(
        "--random", action="store_true", help="also measure random placement"
    )
    _add_cache_option(p_run)
    _add_store_options(p_run)

    p_map = sub.add_parser("map", help="ASCII cache-occupancy maps")
    p_map.add_argument("workload", choices=workload_names())
    _add_cache_option(p_map)

    p_summary = sub.add_parser(
        "summary", help="profile summary statistics for a workload"
    )
    p_summary.add_argument("workload", choices=workload_names())
    p_summary.add_argument("--input")
    _add_cache_option(p_summary)

    p_tables = sub.add_parser("tables", help="regenerate paper tables/figures")
    p_tables.add_argument(
        "table",
        nargs="+",
        choices=[
            "table1", "table2", "table3", "table4", "table5",
            "figure3", "random", "geometry", "associative",
            "quality", "overhead", "hierarchy", "sampling", "sensitivity",
        ],
        help="one or more tables; tables that share experiments "
             "(table2 table4) are scheduled as one job graph",
    )
    p_tables.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for stage-job dispatch (default 1)",
    )
    p_tables.add_argument(
        "--programs", default=None,
        help="comma-separated subset of programs to run "
             "(tables that accept one)",
    )
    _add_retry_options(p_tables)
    _add_store_options(p_tables)

    p_jobs = sub.add_parser(
        "jobs",
        help="plan or run the experiment job graph and show per-job status",
    )
    p_jobs.add_argument(
        "table",
        nargs="*",
        default=["table2", "table4"],
        choices=["table2", "table4"],
        help="experiment batches to schedule (default: table2 table4)",
    )
    p_jobs.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for stage-job dispatch (default 1)",
    )
    p_jobs.add_argument(
        "--programs", default=None,
        help="comma-separated subset of programs (default: all nine)",
    )
    p_jobs.add_argument(
        "--plan", action="store_true",
        help="plan and warm-probe only: print the job table without "
             "executing anything",
    )
    _add_retry_options(p_jobs)
    _add_store_options(p_jobs)

    from .core.cost_model import COST_MODEL_NAMES

    p_sweep = sub.add_parser(
        "sweep",
        help="run the geometry x associativity x workload grid as one "
             "job graph and write BENCH_sweep.json (docs/SWEEP.md)",
    )
    p_sweep.add_argument(
        "--sizes", type=_parse_int_list, default=None,
        help="comma-separated cache sizes in bytes "
             "(default 4096,8192,16384)",
    )
    p_sweep.add_argument(
        "--assoc", type=_parse_int_list, default=None,
        help="comma-separated associativities (default 1,2,4)",
    )
    p_sweep.add_argument(
        "--line", type=int, default=None,
        help="cache line size in bytes (default 32)",
    )
    p_sweep.add_argument(
        "--geometries", type=_parse_cache, nargs="+", default=None,
        help="explicit SIZE:LINE:ASSOC grid points (replaces "
             "--sizes/--assoc/--line; validated at parse time)",
    )
    p_sweep.add_argument(
        "--workloads", default=None,
        help="comma-separated workloads; benchmarks and family "
             "scenarios both resolve "
             "(default espresso,compress,alloc-mix,pqueue-churn,"
             "layout-stress)",
    )
    p_sweep.add_argument(
        "--cost-model", choices=("auto",) + COST_MODEL_NAMES,
        default="auto",
        help="conflict-cost model for every cell; auto picks direct "
             "for 1-way and assoc otherwise (default auto)",
    )
    p_sweep.add_argument(
        "--quick", action="store_true",
        help="CI mini-grid: 8192:32 at 1- and 4-way x espresso + "
             "layout-stress",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for stage-job dispatch (default 1)",
    )
    p_sweep.add_argument(
        "-o", "--output", default=None,
        help="where to write the JSON report (default BENCH_sweep.json)",
    )
    _add_retry_options(p_sweep)
    _add_store_options(p_sweep)

    p_bench = sub.add_parser(
        "bench", help="benchmark the table pipeline cold and warm"
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="benchmark two programs instead of all nine (CI smoke)",
    )
    p_bench.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the table pipeline (default 1)",
    )
    p_bench.add_argument(
        "--adaptive", action="store_true",
        help="benchmark adaptive re-placement (miss rate vs cadence x "
             "window size, static + oracle baselines) "
             "and write BENCH_adaptive.json",
    )
    p_bench.add_argument(
        "-o", "--output", default=None,
        help="where to write the JSON report (default BENCH_pipeline.json, "
             "BENCH_adaptive.json with --adaptive)",
    )

    from .workloads.drift import drift_workload_names

    p_adapt = sub.add_parser(
        "adapt",
        help="stream a workload through the adaptive placement engine",
    )
    p_adapt.add_argument(
        "workload", choices=drift_workload_names() + workload_names(),
        help="a drift scenario (phase-change, drifting, stationary) "
             "or any benchmark workload",
    )
    p_adapt.add_argument(
        "--input", help="input name (default: test input when available)"
    )
    p_adapt.add_argument(
        "--window", type=int, default=1024,
        help="events per window (default 1024)",
    )
    p_adapt.add_argument(
        "--cadence", type=int, default=1,
        help="drift check every N windows (default 1)",
    )
    p_adapt.add_argument(
        "--history", type=int, default=1,
        help="sliding-window depth in windows (default 1)",
    )
    p_adapt.add_argument(
        "--threshold", type=float, default=1.5,
        help="drift trigger factor over the post-placement score "
             "(default 1.5)",
    )
    p_adapt.add_argument(
        "--policy", choices=["drift", "never", "always"], default="drift",
        help="re-placement policy (default drift)",
    )
    _add_cache_option(p_adapt)
    _add_store_options(p_adapt)

    p_report = sub.add_parser(
        "report",
        help="instrumented pipeline run: JSON run report + telemetry tree",
    )
    p_report.add_argument(
        "--workload", required=True, choices=workload_names()
    )
    p_report.add_argument(
        "--same-input", action="store_true",
        help="measure the training input (Table 2 mode)",
    )
    p_report.add_argument(
        "--random", action="store_true", help="also measure random placement"
    )
    p_report.add_argument(
        "-o", "--output", default=None,
        help="write the JSON report here (default: print to stdout)",
    )
    _add_cache_option(p_report)
    _add_store_options(p_report)

    p_serve = sub.add_parser(
        "serve",
        help="run the placement-as-a-service daemon (see docs/SERVICE.md)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8750,
        help="listen port; 0 picks a free one (default 8750)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="job-graph worker processes per batch (default 1)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=32,
        help="bounded request queue; past it submits get 429 (default 32)",
    )
    p_serve.add_argument(
        "--batch-max", type=int, default=8,
        help="max jobs coalesced into one dispatcher batch (default 8)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to finish queued jobs on shutdown (default 30)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None,
        help="store root the daemon serves from "
             "(default: $REPRO_CACHE_DIR, then .repro-cache)",
    )

    p_submit = sub.add_parser(
        "submit", help="submit one job to a running serve daemon and wait"
    )
    p_submit.add_argument(
        "--kind", default="placement",
        choices=["experiment", "placement", "profile", "stats"],
    )
    p_submit.add_argument("--workload", default=None)
    p_submit.add_argument("--input", default=None)
    p_submit.add_argument(
        "--same-input", action="store_true",
        help="experiment jobs: measure the training input",
    )
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8750)
    p_submit.add_argument(
        "--tenant", default=None, help="store namespace (X-Repro-Tenant)"
    )
    p_submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait for the job to finish (default 300)",
    )
    p_submit.add_argument(
        "-o", "--output", default=None,
        help="write the result JSON here (placement jobs write the bare "
             "placement map, same format as `repro place`)",
    )
    p_submit.add_argument(
        "--cache",
        type=_parse_cache,
        default=None,
        help="cache geometry as SIZE:LINE:ASSOC (default: the paper's "
             "8192:32:1, chosen by the daemon)",
    )

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain the persistent artifact store"
    )
    cache_sub = p_cache.add_subparsers(dest="action", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats", help="summarize entries, bytes, and staleness"
    )
    p_cache_gc = cache_sub.add_parser(
        "gc", help="evict stale, old, or excess entries"
    )
    p_cache_gc.add_argument(
        "--max-bytes", type=int, default=None,
        help="evict oldest entries until the store fits this many bytes",
    )
    p_cache_gc.add_argument(
        "--max-age-days", type=float, default=None,
        help="evict entries not touched within this many days",
    )
    p_cache_clear = cache_sub.add_parser("clear", help="delete every entry")
    for sub_parser in (p_cache_stats, p_cache_gc, p_cache_clear):
        sub_parser.add_argument(
            "--cache-dir", default=None,
            help="store root (default: $REPRO_CACHE_DIR, then .repro-cache)",
        )
    return parser


_COMMANDS = {
    "list": cmd_list,
    "stats": cmd_stats,
    "profile": cmd_profile,
    "place": cmd_place,
    "run": cmd_run,
    "map": cmd_map,
    "summary": cmd_summary,
    "tables": cmd_tables,
    "jobs": cmd_jobs,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
    "adapt": cmd_adapt,
    "report": cmd_report,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "cache": cmd_cache,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    store = _resolve_store(args)
    if store is None:
        return _COMMANDS[args.command](args)
    with use_store(store):
        try:
            return _COMMANDS[args.command](args)
        finally:
            print(store.summary_line(), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
