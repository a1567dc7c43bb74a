"""End-to-end pipeline benchmark: batched engine vs the scalar baseline.

``repro bench`` times the paper's table pipeline (Table 1 statistics and
the Table 2/4 miss-rate tables) twice over the same programs:

* **scalar** — the seed's per-event pipeline: every table re-runs each
  workload through per-event sinks and the scalar cache simulator
  (:func:`~repro.runtime.driver.collect_stats` without a trace and
  ``run_experiment(..., engine="scalar")``).
* **batched** — the experiment harnesses: each (workload, input) is
  recorded once as structure-of-arrays columns, and statistics,
  profiles, and all placement measurements are derived from the columns
  by the vectorized kernels, through the job graph.

Both arms produce identical tables (the parity suite asserts equality of
every statistic), so the wall-clock ratio is a pure engine speedup.  A
raw-kernel microbenchmark (events/sec through the cache simulators on a
recorded trace) is included for the per-event view.  Results are written
as JSON, by default to ``BENCH_pipeline.json``.
"""

from __future__ import annotations

import json
import time
from typing import Callable

from ..cache.batch import BatchCacheSimulator
from ..cache.config import CacheConfig
from ..cache.simulator import CacheSimulator
from ..trace.buffer import DEFAULT_CHUNK_EVENTS, record_trace
from ..workloads import make_workload
from .resolvers import NaturalResolver
from .scale import (  # noqa: F401  (re-exported: bench façade)
    SCALE_OUTPUT,
    render_scale_bench,
    run_scale_bench,
)

#: Programs benchmarked by ``--quick`` (CI smoke) vs the full run.
QUICK_PROGRAMS = ("deltablue", "espresso")
DEFAULT_OUTPUT = "BENCH_pipeline.json"
PLACEMENT_OUTPUT = "BENCH_placement.json"
CACHE_OUTPUT = "BENCH_cache.json"
DAG_OUTPUT = "BENCH_dag.json"


def _time_tables(tables: dict[str, Callable[[], object]]) -> dict[str, float]:
    """Run each table once, timing it."""
    timings: dict[str, float] = {}
    for label, runner in tables.items():
        start = time.perf_counter()
        runner()
        timings[label] = time.perf_counter() - start
    return timings


def _harness_tables(programs: list[str]) -> dict[str, Callable[[], object]]:
    """The table pipeline through the experiment harnesses (batched arm)."""
    from ..experiments import run_table1, run_table2, run_table4

    return {
        "table1": lambda: run_table1(programs),
        "table2": lambda: run_table2(programs),
        "table4": lambda: run_table4(programs),
    }


def _scalar_tables(programs: list[str]) -> dict[str, Callable[[], object]]:
    """The same tables' work on the per-event pipeline (scalar arm)."""
    from ..experiments.common import paper_cache
    from .driver import collect_stats, run_experiment

    def table1() -> None:
        for name in programs:
            workload = make_workload(name)
            for input_name in (workload.train_input, workload.test_input):
                collect_stats(workload, input_name)

    def experiments(same_input: bool) -> None:
        for name in programs:
            workload = make_workload(name)
            run_experiment(
                workload,
                test_input=workload.train_input if same_input else None,
                cache_config=paper_cache(),
                engine="scalar",
            )

    return {
        "table1": table1,
        "table2": lambda: experiments(True),
        "table4": lambda: experiments(False),
    }


def _pipeline_events(programs: list[str]) -> int:
    """Logical references processed by one pipeline pass.

    Per program the tables touch: Table 1 statistics over the training
    and testing inputs, Table 2 (profile + two measurements of the
    training input), and Table 4 (profile the training input, measure
    the testing input twice) — five passes over the training references
    and three over the testing references.  Both arms perform the same
    logical work, so events/sec compares throughput directly.
    """
    from ..experiments.common import cached_stats

    total = 0
    for name in programs:
        workload = make_workload(name)
        train = cached_stats(name, workload.train_input)
        test = cached_stats(name, workload.test_input)
        total += 5 * (train.loads + train.stores)
        total += 3 * (test.loads + test.stores)
    return total


def _arm(tables: dict[str, float], events: int) -> dict[str, object]:
    total = sum(tables.values())
    return {
        "tables_s": tables,
        "total_s": total,
        "events": events,
        "events_per_sec": events / total if total else 0.0,
    }


def _kernel_microbench(
    program: str, config: CacheConfig | None = None
) -> dict[str, object]:
    """Events/sec through the raw cache simulators on one recorded trace."""
    config = config or CacheConfig()
    workload = make_workload(program)
    trace = record_trace(workload, workload.train_input)
    addr = trace.resolve(NaturalResolver())
    _obj, _offset, size, cat, store = trace.columns()
    obj = _obj

    start = time.perf_counter()
    engine = BatchCacheSimulator(config)
    for begin in range(0, len(addr), DEFAULT_CHUNK_EVENTS):
        chunk = slice(begin, begin + DEFAULT_CHUNK_EVENTS)
        engine.consume(addr[chunk], size[chunk], obj[chunk], cat[chunk], store[chunk])
    batch_s = time.perf_counter() - start

    from ..trace.events import Category

    categories = tuple(Category)
    scalar = CacheSimulator(config)
    access = scalar.access
    start = time.perf_counter()
    for a, sz, o, c, st in zip(
        addr.tolist(), size.tolist(), obj.tolist(), cat.tolist(), store.tolist()
    ):
        access(a, sz, o, categories[c], bool(st))
    scalar_s = time.perf_counter() - start
    assert engine.stats == scalar.stats, "kernel diverged during bench"

    events = trace.events
    return {
        "program": program,
        "events": events,
        "batch_s": batch_s,
        "scalar_s": scalar_s,
        "batch_events_per_sec": events / batch_s if batch_s else 0.0,
        "scalar_events_per_sec": events / scalar_s if scalar_s else 0.0,
        "speedup": scalar_s / batch_s if batch_s else 0.0,
    }


def run_bench(
    quick: bool = False,
    jobs: int = 1,
    output: str | None = DEFAULT_OUTPUT,
    programs: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Benchmark the table pipeline under both engines; write JSON.

    Returns the result dict (also written to ``output`` unless None):
    per-table wall-clock for each arm, pipeline events/sec, the raw
    kernel microbenchmark, and the headline ``speedup`` of the batched
    arm over the scalar baseline.
    """
    from ..experiments.common import (
        all_programs,
        clear_cache,
        set_parallel_jobs,
    )

    say = progress or (lambda _message: None)
    if programs is None:
        programs = list(QUICK_PROGRAMS) if quick else all_programs()

    say(f"kernel microbench ({programs[0]})...")
    kernel = _kernel_microbench(programs[0])
    say("scalar pipeline arm...")
    scalar_tables = _time_tables(_scalar_tables(programs))
    say("batched pipeline arm...")
    clear_cache()
    set_parallel_jobs(jobs)
    try:
        batched_tables = _time_tables(_harness_tables(programs))
        events = _pipeline_events(programs)
    finally:
        clear_cache()
        set_parallel_jobs(1)
    scalar_arm = _arm(scalar_tables, events)
    batched_arm = _arm(batched_tables, events)

    result: dict[str, object] = {
        "quick": quick,
        "programs": programs,
        "jobs": jobs,
        "arms": {"scalar": scalar_arm, "batched": batched_arm},
        "kernel": kernel,
        "speedup": (
            scalar_arm["total_s"] / batched_arm["total_s"]
            if batched_arm["total_s"]
            else 0.0
        ),
    }
    if output:
        with open(output, "w") as handle:
            json.dump(result, handle, indent=2)
        result["output"] = output
    return result


def run_placement_bench(
    quick: bool = False,
    output: str | None = PLACEMENT_OUTPUT,
    rounds: int = 3,
    programs: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Benchmark the placement pass: array engine vs the scalar baseline.

    Profiles each program's training input once (from a recorded trace,
    outside the timed region), then times ``CCDPPlacer.place()`` under
    both engines.  Each (program, engine, round) gets a *fresh* profile
    object so per-profile memos (TRG index, popularity, affinity) are
    rebuilt inside the timed region — the ratio is a pure engine
    comparison of the same cold-start work.  The two engines' placement
    maps are asserted identical before anything is timed.

    Returns the result dict (also written to ``output`` unless None).
    """
    from ..core.algorithm import CCDPPlacer
    from ..experiments.common import all_programs, cached_trace, paper_cache
    from ..profiling.batch import profile_trace

    say = progress or (lambda _message: None)
    if programs is None:
        programs = list(QUICK_PROGRAMS) if quick else all_programs()
    config = paper_cache()

    def fresh_profile(name: str):
        workload = make_workload(name)
        trace = cached_trace(name, workload.train_input)
        return workload, profile_trace(trace, cache_config=config)

    arms: dict[str, dict[str, object]] = {
        "scalar": {"per_program_s": {}},
        "array": {"per_program_s": {}},
    }
    parity = True
    for name in programs:
        say(f"placement bench: {name}...")
        workload, profile = fresh_profile(name)
        maps = {}
        for engine in ("scalar", "array"):
            maps[engine] = CCDPPlacer(
                profile_trace(
                    cached_trace(name, workload.train_input), cache_config=config
                ),
                config,
                place_heap=workload.place_heap,
                engine=engine,
            ).place()
        parity = parity and maps["scalar"] == maps["array"]
        for engine in ("scalar", "array"):
            best = None
            for _ in range(max(1, rounds)):
                _workload, profile = fresh_profile(name)
                start = time.perf_counter()
                CCDPPlacer(
                    profile, config, place_heap=workload.place_heap, engine=engine
                ).place()
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            arms[engine]["per_program_s"][name] = best
    for arm in arms.values():
        arm["total_s"] = sum(arm["per_program_s"].values())

    result: dict[str, object] = {
        "quick": quick,
        "programs": programs,
        "rounds": rounds,
        "cache": {
            "size": config.size,
            "line_size": config.line_size,
            "associativity": config.associativity,
        },
        "arms": arms,
        "parity": parity,
        "speedup": (
            arms["scalar"]["total_s"] / arms["array"]["total_s"]
            if arms["array"]["total_s"]
            else 0.0
        ),
    }
    if output:
        with open(output, "w") as handle:
            json.dump(result, handle, indent=2)
        result["output"] = output
    return result


def run_cache_bench(
    quick: bool = True,
    output: str | None = CACHE_OUTPUT,
    programs: list[str] | None = None,
    cache_dir: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Benchmark the artifact store: cold vs warm pipeline run.

    Runs the Table 2/4 pipeline twice over the same persistent store —
    once against an empty store (every stage computes and persists),
    once against the store the first pass filled (every stage loads).
    The in-process memo cache is cleared between arms, so the only
    state carried over is the on-disk store; the warm arm's results
    must be bit-identical to the cold arm's.

    Returns the result dict (also written to ``output`` unless None):
    wall-clock per arm, the headline warm ``speedup``, per-arm store
    counters, and an ``identical`` flag covering the rendered tables
    and every placement map.
    """
    import shutil
    import tempfile

    from ..experiments import run_table2, run_table4
    from ..experiments.common import all_programs, cached_experiment, clear_cache
    from ..profiling.serialize import placement_to_dict
    from ..store import ArtifactStore, use_store

    say = progress or (lambda _message: None)
    if programs is None:
        programs = list(QUICK_PROGRAMS) if quick else all_programs()
    own_dir = cache_dir is None
    root = cache_dir or tempfile.mkdtemp(prefix="repro-cache-bench-")

    def run_arm(label: str) -> dict[str, object]:
        say(f"{label} arm...")
        clear_cache()
        store = ArtifactStore(root)
        with use_store(store):
            start = time.perf_counter()
            table2 = run_table2(programs)
            table4 = run_table4(programs)
            elapsed = time.perf_counter() - start
            placements = {
                name: placement_to_dict(
                    cached_experiment(name, same_input=True).placement
                )
                for name in programs
            }
        tallies = store.counters
        return {
            "total_s": elapsed,
            "tables": {"table2": table2.render(), "table4": table4.render()},
            "placements": placements,
            "store": {
                "hits": tallies.hits,
                "misses": tallies.misses,
                "corrupt": tallies.corrupt,
                "writes": tallies.writes,
                "bytes_written": tallies.bytes_written,
            },
        }

    try:
        cold = run_arm("cold")
        warm = run_arm("warm")
    finally:
        clear_cache()
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)

    identical = (
        cold["tables"] == warm["tables"]
        and cold["placements"] == warm["placements"]
    )
    result: dict[str, object] = {
        "quick": quick,
        "programs": programs,
        "cache_dir": None if own_dir else root,
        "arms": {
            "cold": {k: cold[k] for k in ("total_s", "store")},
            "warm": {k: warm[k] for k in ("total_s", "store")},
        },
        "identical": identical,
        "speedup": (
            cold["total_s"] / warm["total_s"] if warm["total_s"] else 0.0
        ),
    }
    if output:
        with open(output, "w") as handle:
            json.dump(result, handle, indent=2)
        result["output"] = output
    return result


def run_dag_bench(
    quick: bool = True,
    jobs: int = 4,
    output: str | None = DAG_OUTPUT,
    programs: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Benchmark the job-graph executor cold and warm.

    Two arms over the Table 2 + Table 4 pipeline at the same worker
    count, each from a cleared in-process memo:

    * **dag-cold** — fresh store: both tables planned as one job graph,
      shared training stages deduplicated before execution, stage jobs
      dispatched longest-estimated-first.
    * **dag-warm** — the same graph rerun over the cold arm's store: the
      warm loader must prune every stage job (``executed == 0``).

    Both arms must render byte-identical tables.  Their scheduler
    summaries and the cold arm's per-kind mean job seconds (the cost
    priors' feedback history) are included in the JSON.
    """
    import shutil
    import tempfile

    from ..experiments import run_table2, run_table4
    from ..experiments.common import (
        all_programs,
        clear_cache,
        prefetch_experiment_batches,
        set_parallel_jobs,
    )
    from ..sched.executor import _effective_cpus, last_summary
    from ..store import ArtifactStore, use_store

    say = progress or (lambda _message: None)
    if programs is None:
        programs = list(QUICK_PROGRAMS) if quick else all_programs()
    batches = [
        {"programs": programs, "same_input": True},
        {"programs": programs, "same_input": False},
    ]
    root = tempfile.mkdtemp(prefix="repro-dag-bench-")

    def run_arm(label: str) -> dict[str, object]:
        say(f"{label} arm...")
        clear_cache()
        with use_store(ArtifactStore(root)):
            set_parallel_jobs(jobs)
            start = time.perf_counter()
            prefetch_experiment_batches(batches, jobs=jobs)
            table2 = run_table2(programs)
            table4 = run_table4(programs)
            elapsed = time.perf_counter() - start
        summary = last_summary()
        return {
            "total_s": elapsed,
            "tables": {"table2": table2.render(), "table4": table4.render()},
            "sched": {
                "total": summary.total,
                "executed": summary.executed,
                "deduped": summary.deduped,
                "pruned": summary.pruned,
                "critical_path_s": summary.critical_path_seconds,
            },
            "job_seconds_by_kind": dict(summary.job_seconds_by_kind),
        }

    try:
        cold = run_arm("dag-cold")
        warm = run_arm("dag-warm")
    finally:
        set_parallel_jobs(1)
        clear_cache()
        shutil.rmtree(root, ignore_errors=True)

    result: dict[str, object] = {
        "quick": quick,
        "programs": programs,
        "jobs": jobs,
        # Cold wall-clock is dominated by dedup on a single effective
        # CPU; critical-path overlap only shows with real cores.
        "effective_cpus": _effective_cpus(),
        "arms": {
            "dag_cold": {key: cold[key] for key in cold if key != "tables"},
            "dag_warm": {key: warm[key] for key in warm if key != "tables"},
        },
        "identical": cold["tables"] == warm["tables"],
        "warm_executed": warm["sched"]["executed"],
        "job_seconds_by_kind": cold["job_seconds_by_kind"],
    }
    if output:
        with open(output, "w") as handle:
            json.dump(result, handle, indent=2)
        result["output"] = output
    return result


def render_dag_bench(result: dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_dag_bench` result."""
    arms = result["arms"]
    sched = arms["dag_cold"]["sched"]
    warm_sched = arms["dag_warm"]["sched"]
    lines = [
        f"job-graph scheduler ({', '.join(result['programs'])}, "
        f"--jobs {result['jobs']}, "
        f"{result.get('effective_cpus', '?')} effective cpu(s)):",
        f"  dag cold     {arms['dag_cold']['total_s']:6.2f}s   "
        f"(jobs={sched['total']}, executed={sched['executed']}, "
        f"deduped={sched['deduped']}, "
        f"critical path {sched['critical_path_s']:.2f}s)",
        f"  dag warm     {arms['dag_warm']['total_s']:6.2f}s   "
        f"(executed={warm_sched['executed']}, "
        f"pruned={warm_sched['pruned']})",
        "  -> tables " + ("bit-identical" if result["identical"] else "MISMATCH"),
    ]
    if "output" in result:
        lines.append(f"wrote {result['output']}")
    return "\n".join(lines)


def render_cache_bench(result: dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_cache_bench` result."""
    cold = result["arms"]["cold"]
    warm = result["arms"]["warm"]
    lines = [
        f"artifact store ({', '.join(result['programs'])}):",
        f"  cold  {cold['total_s']:6.2f}s   "
        f"(misses={cold['store']['misses']}, writes={cold['store']['writes']}, "
        f"{cold['store']['bytes_written']:,} bytes)",
        f"  warm  {warm['total_s']:6.2f}s   "
        f"(hits={warm['store']['hits']}, misses={warm['store']['misses']})",
        f"  -> {result['speedup']:.1f}x warm speedup, results "
        + ("bit-identical" if result["identical"] else "MISMATCH"),
    ]
    if "output" in result:
        lines.append(f"wrote {result['output']}")
    return "\n".join(lines)


def render_placement_bench(result: dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_placement_bench` result."""
    scalar = result["arms"]["scalar"]
    array = result["arms"]["array"]
    lines = [
        f"placement pass ({len(result['programs'])} programs, "
        f"best of {result['rounds']} rounds):"
    ]
    for name in result["programs"]:
        s = scalar["per_program_s"][name]
        a = array["per_program_s"][name]
        ratio = s / a if a else 0.0
        lines.append(
            f"  {name:<10} scalar {s * 1000:8.2f}ms"
            f"   array {a * 1000:8.2f}ms   -> {ratio:5.2f}x"
        )
    lines.append(
        f"  {'total':<10} scalar {scalar['total_s'] * 1000:8.2f}ms"
        f"   array {array['total_s'] * 1000:8.2f}ms"
        f"   -> {result['speedup']:.2f}x"
    )
    lines.append(f"  parity: {'identical maps' if result['parity'] else 'MISMATCH'}")
    if "output" in result:
        lines.append(f"wrote {result['output']}")
    return "\n".join(lines)


def render_bench(result: dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_bench` result."""
    lines = []
    scalar = result["arms"]["scalar"]
    batched = result["arms"]["batched"]
    kernel = result["kernel"]
    lines.append(f"pipeline ({', '.join(result['programs'])}; jobs={result['jobs']}):")
    for label in scalar["tables_s"]:
        lines.append(
            f"  {label:<8} scalar {scalar['tables_s'][label]:6.2f}s"
            f"   batched {batched['tables_s'][label]:6.2f}s"
        )
    lines.append(
        f"  {'total':<8} scalar {scalar['total_s']:6.2f}s"
        f"   batched {batched['total_s']:6.2f}s"
        f"   -> {result['speedup']:.2f}x"
    )
    lines.append(
        f"  events/sec: scalar {scalar['events_per_sec']:,.0f}"
        f"   batched {batched['events_per_sec']:,.0f}"
    )
    lines.append(
        f"kernel ({kernel['program']}, {kernel['events']} events): "
        f"scalar {kernel['scalar_events_per_sec']:,.0f} ev/s, "
        f"batched {kernel['batch_events_per_sec']:,.0f} ev/s "
        f"({kernel['speedup']:.1f}x)"
    )
    if "output" in result:
        lines.append(f"wrote {result['output']}")
    return "\n".join(lines)
