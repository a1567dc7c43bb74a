"""End-to-end experiment driver.

Chains the paper's pipeline for one program: profile the training input,
run the placement algorithm, then measure the data-cache miss rate of the
testing input under the original, CCDP, and (optionally) random
placements.  All of the experiment harnesses in ``repro.experiments``
build on these functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.paging import PageTracker, PagingSummary
from ..cache.batch import BatchCacheSimulator
from ..obs import invariants
from ..obs import telemetry as obs
from ..cache.config import CacheConfig
from ..cache.simulator import CacheStats
from ..core.algorithm import CCDPPlacer
from ..core.placement_map import PlacementMap
from ..profiling.batch import profile_trace
from ..profiling.profile_data import Profile
from ..store import current_store
from ..store import stages as store_stages
from ..store import traces as store_traces
from ..trace.buffer import DEFAULT_CHUNK_EVENTS, TraceRecorder, record_trace
from ..trace.stats import WorkloadStats
from ..workloads.base import Workload
from .resolvers import (
    AddressResolver,
    CCDPResolver,
    NaturalResolver,
    RandomResolver,
)


@dataclass
class MeasureResult:
    """Outcome of simulating one (workload, input, placement) triple."""

    cache: CacheStats
    paging: PagingSummary | None = None


@dataclass
class ExperimentResult:
    """Original vs CCDP (vs random) for one workload and test input."""

    workload: str
    train_input: str
    test_input: str
    profile: Profile
    placement: PlacementMap
    original: MeasureResult
    ccdp: MeasureResult
    random: MeasureResult | None = None

    @property
    def miss_reduction_pct(self) -> float:
        """Percent reduction in miss rate, the paper's headline metric."""
        base = self.original.cache.miss_rate
        if base == 0:
            return 0.0
        return 100.0 * (base - self.ccdp.cache.miss_rate) / base


def profile_workload(
    workload: Workload,
    input_name: str,
    cache_config: CacheConfig | None = None,
    chunk_size: int = 256,
    name_depth: int = 4,
    queue_threshold: int | None = None,
    trace: TraceRecorder | None = None,
) -> Profile:
    """Profile one input's recorded trace: the Name+TRG profile.

    The profile is derived from the columns of ``trace``, a recording of
    the same (workload, input) run, by
    :func:`~repro.profiling.batch.profile_trace`; without one, the
    workload runs once to record it.  With an artifact store installed,
    the profile is served from (and persisted to) the store, keyed by
    the trace fingerprint and profiler parameters.
    """
    if trace is None:
        trace = record_trace(workload, input_name)

    def compute() -> Profile:
        return profile_trace(
            trace,
            cache_config=cache_config,
            chunk_size=chunk_size,
            name_depth=name_depth,
            queue_threshold=queue_threshold,
        )

    with obs.span("profile", input=input_name):
        store = current_store()
        if store is None:
            return compute()
        params = store_stages.profile_params(
            {
                "chunk_size": chunk_size,
                "name_depth": name_depth,
                "queue_threshold": queue_threshold,
            }
        )
        return store_stages.cached_profile(store, trace, cache_config, params, compute)


def collect_stats(
    workload: Workload,
    input_name: str,
    trace: TraceRecorder | None = None,
) -> WorkloadStats:
    """Gather Table 1 statistics for one input from its recorded trace.

    Statistics are computed vectorized from the columns of ``trace``
    (:meth:`~repro.trace.buffer.TraceRecorder.stats`); without one, the
    workload runs once to record it.  With an artifact store installed,
    they are served from the store by trace fingerprint.
    """
    if trace is None:
        trace = record_trace(workload, input_name)
    store = current_store()
    if store is None:
        return trace.stats()
    return store_stages.cached_workload_stats(store, trace, trace.stats)


def measure_trace(
    trace: TraceRecorder,
    resolver: AddressResolver,
    cache_config: CacheConfig | None = None,
    classify: bool = False,
    track_pages: bool = False,
) -> MeasureResult:
    """Simulate a recorded trace under a placement, batched.

    Lifetime ops are replayed through the resolver once; addresses are
    then gathered chunk-by-chunk (:meth:`TraceRecorder.iter_resolved`)
    and streamed through the batched cache simulator (and page tracker)
    — no whole-trace address column is ever materialized, and consumed
    chunks of a memmapped trace are dropped from the resident set
    (:meth:`TraceRecorder.advise_done`), so simulation RSS stays at
    one-chunk working set regardless of trace length.  Statistics equal
    the per-access simulator's over the same run; the parity suites
    check this against that test oracle (``tests/oracles.py``).

    With an artifact store installed, the finished statistics are served
    from (and persisted to) the store, keyed by the trace fingerprint
    and the resolver's placement policy.
    """

    def compute() -> MeasureResult:
        with obs.span("simulate", events=trace.events):
            simulator = BatchCacheSimulator(cache_config, classify=classify)
            pages = PageTracker() if track_pages else None
            obj, _offset, size, cat, store = trace.columns()
            for start, end, addr_chunk in trace.iter_resolved(
                resolver, DEFAULT_CHUNK_EVENTS
            ):
                simulator.consume(
                    addr_chunk,
                    size[start:end],
                    obj[start:end],
                    cat[start:end],
                    store[start:end],
                )
                if pages is not None:
                    pages.touch_batch(addr_chunk, size[start:end])
                trace.advise_done(start, end)
            paging = PagingSummary.from_tracker(pages) if pages else None
            stats = simulator.stats
        return MeasureResult(cache=stats, paging=paging)

    artifact_store = current_store()
    if artifact_store is None:
        result = compute()
    else:
        result = store_stages.cached_measure(
            artifact_store,
            trace,
            resolver,
            cache_config,
            classify,
            track_pages,
            compute,
        )
    invariants.maybe_check_cache_stats(result.cache, context="measure_trace")
    return result


def measure(
    workload: Workload,
    input_name: str,
    resolver: AddressResolver,
    cache_config: CacheConfig | None = None,
    classify: bool = False,
    track_pages: bool = False,
    trace: TraceRecorder | None = None,
) -> MeasureResult:
    """Simulate one input under a placement and collect cache/page stats.

    Without a recorded ``trace`` of the same (workload, input) run, the
    workload runs once to record one; the recording is then simulated
    by :func:`measure_trace`.
    """
    if trace is None:
        trace = record_trace(workload, input_name)
    return measure_trace(
        trace,
        resolver,
        cache_config,
        classify=classify,
        track_pages=track_pages,
    )


def build_placement(
    workload: Workload,
    train_input: str | None = None,
    cache_config: CacheConfig | None = None,
    place_heap: bool | None = None,
    trace: TraceRecorder | None = None,
    cost_model: str = "direct",
    **profiler_kwargs,
) -> tuple[Profile, PlacementMap]:
    """Profile the training input and run the placement algorithm.

    With an artifact store installed and a recorded ``trace`` in hand,
    both stage outputs are store-backed: the profile by trace
    fingerprint + profiler parameters, the placement map by those plus
    the geometry and placer configuration — so e.g. re-placing under a
    different cost model reuses the cached profile.  ``cost_model`` selects
    the conflict-cost model (``direct``/``assoc``/``two-level``); the
    two-level calibration replay needs the recorded ``trace``.
    """
    from ..core.cost_model import resolve_cost_model

    train = train_input or workload.train_input
    profile = profile_workload(
        workload, train, cache_config, trace=trace, **profiler_kwargs
    )
    resolved_heap = workload.place_heap if place_heap is None else place_heap

    def compute() -> PlacementMap:
        placer = CCDPPlacer(
            profile,
            cache_config=cache_config,
            place_heap=resolved_heap,
            cost_model=resolve_cost_model(cost_model, cache_config, trace),
        )
        return placer.place()

    store = current_store()
    if store is None or trace is None:
        return profile, compute()
    placement = store_stages.cached_placement(
        store,
        trace,
        cache_config,
        resolved_heap,
        store_stages.profile_params(profiler_kwargs),
        compute,
        cost_model=cost_model,
    )
    return profile, placement


def run_experiment(
    workload: Workload,
    train_input: str | None = None,
    test_input: str | None = None,
    cache_config: CacheConfig | None = None,
    include_random: bool = False,
    random_seed: int = 12345,
    classify: bool = False,
    track_pages: bool = False,
    place_heap: bool | None = None,
) -> ExperimentResult:
    """Full pipeline: profile on train, place, measure on test.

    Setting ``test_input`` equal to ``train_input`` reproduces the
    "ideal" Table 2 configuration; distinct inputs reproduce the
    realistic Table 4 configuration.

    Each distinct (workload, input) is run *once* to record its trace;
    profiling and every placement measurement are then derived from the
    recorded columns by the vectorized kernels.  Batches of registered
    workloads run through the job graph instead
    (:func:`repro.sched.executor.run_experiments_dag`), which shares
    stages across experiments.
    """
    train = train_input or workload.train_input
    test = test_input or workload.test_input
    artifact_store = current_store()
    if artifact_store is not None:
        # Full-warm path: when every stage entry hits (keyed off the
        # recorded trace fingerprints), the experiment is reassembled
        # from the store and the workload never executes.  The probe's
        # hits commit only on success — a partial probe must not count
        # misses the recording pipeline is about to recount.
        with artifact_store.probing() as probe:
            cached = store_stages.try_load_experiment(
                artifact_store,
                workload,
                train,
                test,
                cache_config,
                include_random,
                random_seed,
                classify,
                track_pages,
                place_heap=place_heap,
            )
        if cached is not None:
            probe.commit()
            return cached
    traces: dict[str, TraceRecorder] = {}

    def trace_of(input_name: str) -> TraceRecorder:
        if input_name not in traces:
            trace = None
            if artifact_store is not None:
                # Attach the store's memmap artifact when one exists:
                # zero-copy, no workload run.
                trace = store_traces.load_trace(
                    artifact_store, workload.name, input_name
                )
            if trace is None:
                trace = record_trace(workload, input_name)
            if artifact_store is not None:
                # Persist the fingerprint meta entry plus the memmap
                # column artifact so the next run (this process or any
                # other) attaches instead of re-recording.  Idempotent
                # when the artifact already exists.
                store_traces.remember_and_save(
                    artifact_store, workload.name, input_name, trace
                )
            traces[input_name] = trace
        return traces[input_name]

    train_trace = trace_of(train)
    profile, placement = build_placement(
        workload,
        train,
        cache_config,
        place_heap=place_heap,
        trace=train_trace,
    )
    test_trace = trace_of(test)

    def measure_arm(resolver: AddressResolver) -> MeasureResult:
        return measure_trace(test_trace, resolver, cache_config, classify, track_pages)

    with obs.span("measure.original"):
        original = measure_arm(NaturalResolver())
    with obs.span("measure.ccdp"):
        ccdp = measure_arm(CCDPResolver(placement))
    random_result = None
    if include_random:
        with obs.span("measure.random"):
            random_result = measure_arm(RandomResolver(seed=random_seed))
    return ExperimentResult(
        workload=workload.name,
        train_input=train,
        test_input=test,
        profile=profile,
        placement=placement,
        original=original,
        ccdp=ccdp,
        random=random_result,
    )
