"""Shared machinery for the per-table/figure experiment harnesses.

Every experiment (Tables 1-5, Figure 3, the random-placement comparison,
and the Section 5.2 geometry study) is a function that returns a result
object with ``rows`` and a ``render()`` method.  Expensive intermediate
artifacts are memoized per process so that e.g. Table 2 and Figure 3
share the same simulations, at two levels:

* **Recorded traces** (:func:`cached_trace`): each (workload, input) is
  run once through a :class:`~repro.trace.buffer.TraceRecorder`; Table 1
  statistics, profiles, and every placement measurement are then derived
  from the recorded columns by the batched kernels.  Traces are held in
  a byte-bounded LRU (they are a few MB each).
* **Finished results** (:func:`cached_experiment` and friends): full
  pipeline outputs keyed by program, inputs, and the *explicit* cache
  geometry fields ``(size, line_size, associativity)`` — never by the
  config object itself, so config subclasses with loose equality or
  hashing semantics cannot alias distinct geometries onto one entry.

When a persistent artifact store is installed (:mod:`repro.store`), a
third level sits underneath: each getter first tries to reassemble its
result from store entries recorded by an earlier process — skipping the
workload run entirely on a warm hit — and every freshly computed stage
is persisted for the next run.

Experiments run only through the job graph
(:func:`repro.sched.executor.run_experiments_dag`):
:func:`prefetch_experiments` plans one graph for many programs, and a
:func:`cached_experiment` miss plans a one-spec graph, so a Table 2 and
Table 4 requested together share their training stages.
:func:`set_parallel_jobs` sets the graph's default worker count for the
whole harness (the ``repro tables --jobs`` plumbing).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from ..cache.config import CacheConfig
from ..runtime.driver import (
    ExperimentResult,
    MeasureResult,
    collect_stats,
    measure,
)
from ..runtime import parallel
from ..runtime.faults import ShardFailedError, TaskFailure
from ..runtime.parallel import ExperimentSpec
from ..runtime.resolvers import NaturalResolver, RandomResolver
from ..store import current_store
from ..store import stages as store_stages
from ..store import traces as store_traces
from ..trace.buffer import TraceRecorder, record_trace
from ..trace.stats import WorkloadStats
from ..workloads import make_workload, workload_names

#: Programs the paper applies heap placement to (Section 5).
HEAP_PROGRAMS = ("deltablue", "espresso", "groff", "gcc")

#: Byte bound on the recorded-trace LRU (all 18 paper traces ~= 42 MB).
TRACE_CACHE_BYTES = 256 * 1024 * 1024

_experiment_cache: dict[tuple, object] = {}
_failed_shards: dict[tuple, TaskFailure] = {}
_trace_cache: OrderedDict[tuple[str, str], TraceRecorder] = OrderedDict()
_trace_cache_bytes = 0
#: (store root, workload, input) triples known to be persisted — keeps
#: the LRU-hit path from re-checking the store on every call.
_trace_persisted: set[tuple[str, str, str]] = set()

_parallel_jobs = 1


def paper_cache() -> CacheConfig:
    """The paper's simulated cache: 8 KB direct mapped, 32-byte lines."""
    return CacheConfig(size=8192, line_size=32, associativity=1)


def all_programs() -> list[str]:
    """The nine benchmark programs in the paper's table order."""
    return workload_names()


def set_parallel_jobs(jobs: int) -> None:
    """Set the default job-graph worker count for the harnesses."""
    global _parallel_jobs
    _parallel_jobs = max(1, jobs)


def parallel_jobs() -> int:
    """The configured default job-graph worker count."""
    return _parallel_jobs


def _config_key(config: CacheConfig) -> tuple[int, int, int]:
    """Memo-key fields of a cache geometry, listed explicitly.

    Keying by the config *object* delegates cache identity to whatever
    ``__eq__``/``__hash__`` the (possibly subclassed) config defines;
    two distinct geometries must never share a memo entry, so the
    geometry fields go into the key directly.
    """
    return (config.size, config.line_size, config.associativity)


def cached_trace(name: str, input_name: str) -> TraceRecorder:
    """Record (or reuse) the trace of one (workload, input) run.

    With an artifact store installed, a persisted memmap trace artifact
    is *attached* instead of re-running the workload (zero-copy — the
    columns stay on disk); a freshly recorded trace is persisted so
    every later process attaches too.
    """
    global _trace_cache_bytes
    key = (name, input_name)
    store = current_store()
    trace = _trace_cache.get(key)
    if trace is not None:
        _trace_cache.move_to_end(key)
        # The memo may predate the store (a store-less run, or a forked
        # worker inheriting the parent's cache): make sure the trace is
        # persisted under *this* store root before serving it, so
        # store-keyed consumers can find its fingerprint.
        if store is not None:
            _persist_trace(store, name, input_name, trace)
        return trace
    if store is not None:
        # A speculative attach: a miss here is recounted by the
        # recording path's own lookups, so only a hit commits.
        with store.probing() as probe:
            trace = store_traces.load_trace(store, name, input_name)
        if trace is not None:
            probe.commit()
            _trace_persisted.add((str(store.root), name, input_name))
    if trace is None:
        trace = record_trace(make_workload(name), input_name)
        if store is not None:
            _persist_trace(store, name, input_name, trace)
    _trace_cache[key] = trace
    _trace_cache_bytes += trace.nbytes
    while _trace_cache_bytes > TRACE_CACHE_BYTES and len(_trace_cache) > 1:
        _evicted_key, evicted = _trace_cache.popitem(last=False)
        _trace_cache_bytes -= evicted.nbytes
    return trace


def _persist_trace(store, name: str, input_name: str, trace) -> None:
    """Persist a trace under ``store`` once per (root, workload, input)."""
    marker = (str(store.root), name, input_name)
    if marker in _trace_persisted:
        return
    store_traces.remember_and_save(store, name, input_name, trace)
    _trace_persisted.add(marker)


def _experiment_key(
    name: str,
    same_input: bool,
    include_random: bool,
    classify: bool,
    track_pages: bool,
    config: CacheConfig,
) -> tuple:
    return (
        "exp",
        name,
        same_input,
        include_random,
        classify,
        track_pages,
        _config_key(config),
    )


def cached_experiment(
    name: str,
    same_input: bool = False,
    include_random: bool = False,
    classify: bool = False,
    track_pages: bool = False,
    cache_config: CacheConfig | None = None,
) -> ExperimentResult:
    """Run (or reuse) the full pipeline for one program.

    ``same_input=True`` profiles and measures on the training input
    (Table 2's "ideal" configuration); otherwise the testing input is
    measured (Table 4's realistic configuration).  A miss plans a
    one-spec job graph.
    """
    config = cache_config or paper_cache()
    key = _experiment_key(
        name, same_input, include_random, classify, track_pages, config
    )
    if key not in _experiment_cache and key not in _failed_shards:
        prefetch_experiments(
            [name], same_input, include_random, classify, track_pages, config
        )
    if key not in _experiment_cache:
        raise ShardFailedError(name, _failed_shards[key])
    return _experiment_cache[key]


def prefetch_experiments(
    programs: list[str],
    same_input: bool = False,
    include_random: bool = False,
    classify: bool = False,
    track_pages: bool = False,
    cache_config: CacheConfig | None = None,
    jobs: int | None = None,
) -> None:
    """Fill the experiment cache for many programs with one job graph.

    Runs every program whose :func:`cached_experiment` entry is missing
    through :func:`repro.sched.executor.run_experiments_dag` with
    ``jobs`` workers (default: :func:`parallel_jobs`) and merges the
    results into the memo cache.

    Under a best-effort retry policy a shard whose jobs exhaust their
    retries comes back as a ``None`` hole; the shard is recorded as
    *failed* so :func:`cached_experiment` raises
    :class:`~repro.runtime.faults.ShardFailedError` instead of silently
    recomputing it outside the retry machinery.  The degrading
    harnesses catch that error and drop the shard from their output.
    """
    prefetch_experiment_batches(
        [
            {
                "programs": programs,
                "same_input": same_input,
                "include_random": include_random,
                "classify": classify,
                "track_pages": track_pages,
                "cache_config": cache_config,
            }
        ],
        jobs=jobs,
    )


def prefetch_experiment_batches(batches: list[dict], jobs: int | None = None) -> None:
    """Fill the experiment cache for several spec batches at once.

    Each batch is the keyword form of :func:`prefetch_experiments`'s
    signature (``programs`` plus flags).  Batches share one job graph,
    so e.g. Table 2 and Table 4 requested together collapse their common
    training stages before anything runs.  Entries already cached or
    recorded as failed are not planned again.
    """
    from ..sched.executor import run_experiments_dag

    entries: dict[tuple, ExperimentSpec] = {}
    for batch in batches:
        config = batch.get("cache_config") or paper_cache()
        flags = {
            flag: bool(batch.get(flag))
            for flag in ("same_input", "include_random", "classify", "track_pages")
        }
        for name in batch["programs"]:
            key = _experiment_key(name, config=config, **flags)
            if key not in _experiment_cache and key not in _failed_shards:
                entries.setdefault(
                    key, ExperimentSpec(workload=name, cache_config=config, **flags)
                )
    if not entries:
        return
    results, _graph, _summary = run_experiments_dag(
        list(entries.values()), jobs=_parallel_jobs if jobs is None else jobs
    )
    failures = {
        failure.index: failure for failure in parallel.last_fanout_report().failures
    }
    for index, (key, result) in enumerate(zip(entries, results)):
        if result is None:
            _failed_shards[key] = failures[index]
        else:
            _experiment_cache[key] = result


def _memoized(key: tuple, load: Callable, compute: Callable):
    """Memo entry ``key``: from the memo, else the store, else ``compute()``.

    ``load(store)`` is the warm path (no workload run) and is speculative:
    its lookups run under :meth:`~repro.store.ArtifactStore.probing` and
    count only when it returns a result.  A miss is tallied once, by the
    get-or-compute lookups ``compute`` makes.
    """
    result = _experiment_cache.get(key)
    if result is not None:
        return result
    store = current_store()
    if store is not None:
        with store.probing() as probe:
            result = load(store)
        if result is not None:
            probe.commit()
    if result is None:
        result = compute()
    _experiment_cache[key] = result
    return result


def cached_stats(name: str, input_name: str | None = None) -> WorkloadStats:
    """Collect (or reuse) Table 1 statistics for one program input."""
    workload = make_workload(name)
    input_name = input_name or workload.train_input
    return _memoized(
        ("stats", name, input_name),
        lambda store: store_stages.try_load_workload_stats(store, name, input_name),
        lambda: collect_stats(
            workload, input_name, trace=cached_trace(name, input_name)
        ),
    )


def cached_natural_run(
    name: str,
    input_name: str | None = None,
    cache_config: CacheConfig | None = None,
) -> MeasureResult:
    """Measure one input under natural placement (memoized)."""
    workload = make_workload(name)
    input_name = input_name or workload.train_input
    config = cache_config or paper_cache()
    return _memoized(
        ("natural", name, input_name, _config_key(config)),
        lambda store: store_stages.try_load_measure(
            store, name, input_name, config, {"kind": "natural"},
            classify=False, track_pages=False,
        ),
        lambda: measure(
            workload,
            input_name,
            NaturalResolver(),
            config,
            classify=False,
            trace=cached_trace(name, input_name),
        ),
    )


def cached_random_run(
    name: str,
    input_name: str | None = None,
    seed: int = 12345,
    cache_config: CacheConfig | None = None,
) -> MeasureResult:
    """Measure one input under random placement (memoized)."""
    workload = make_workload(name)
    input_name = input_name or workload.train_input
    config = cache_config or paper_cache()
    resolver = RandomResolver(seed=seed)
    return _memoized(
        ("random", name, input_name, seed, _config_key(config)),
        lambda store: store_stages.try_load_measure(
            store, name, input_name, config,
            store_stages.resolver_policy(resolver),
            classify=False, track_pages=False,
        ),
        lambda: measure(
            workload,
            input_name,
            resolver,
            config,
            classify=False,
            trace=cached_trace(name, input_name),
        ),
    )


def clear_cache() -> None:
    """Drop all memoized experiment artifacts (used by tests)."""
    global _trace_cache_bytes
    _experiment_cache.clear()
    _failed_shards.clear()
    _trace_cache.clear()
    _trace_persisted.clear()
    _trace_cache_bytes = 0
