"""Batched parity: vectorized kernels == the per-event oracles, exactly.

The batched pipeline (:mod:`repro.cache.batch`, :mod:`repro.profiling.batch`,
:func:`repro.runtime.driver.measure_trace`) is only admissible because it
is *bit-identical* to the per-event reference pipeline kept in
:mod:`tests.oracles`.  These tests pin that contract on real workloads
(deltablue, espresso), a synthetic workload with heap churn, and five
cache geometries: the paper's 8K/32B direct-mapped cache, a larger
direct-mapped geometry, and 2-, 4- and 8-way set-associative geometries
that run the stack-distance kernel inside :class:`BatchCacheSimulator`,
with and without three-Cs classification, on recorded traces and on
live runs through :func:`repro.runtime.driver.measure`.  The eviction
matrix, the two-level replay and its L2 penalty calibration are pinned
against the per-access oracles on recorded paper traces.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.analysis.conflicts import replay_evictions
from repro.cache import hierarchy
from repro.cache.batch import BatchCacheSimulator
from repro.cache.config import CacheConfig
from repro.experiments.common import all_programs, cached_trace
from repro.profiling.batch import profile_trace
from repro.runtime.driver import build_placement, measure, measure_trace
from repro.runtime.resolvers import CCDPResolver, NaturalResolver, RandomResolver
from repro.trace.buffer import DEFAULT_CHUNK_EVENTS, record_trace
from repro.trace.events import Category
from repro.workloads import make_workload
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload
from tests.oracles import (
    CacheSimulator,
    ReplaySink,
    ScalarTwoLevelCache,
    assert_same_profile,
    scalar_measure,
    scalar_profile,
)

GEOMETRIES = [
    pytest.param(CacheConfig(size=8192, line_size=32, associativity=1), id="8k-32B-direct"),
    pytest.param(CacheConfig(size=16384, line_size=64, associativity=1), id="16k-64B-direct"),
    pytest.param(CacheConfig(size=8192, line_size=32, associativity=2), id="8k-32B-2way"),
    pytest.param(CacheConfig(size=8192, line_size=32, associativity=4), id="8k-32B-4way"),
    pytest.param(CacheConfig(size=8192, line_size=32, associativity=8), id="8k-32B-8way"),
]


def synthetic_workload() -> SyntheticWorkload:
    """A small synthetic program with heap churn and aliased globals."""
    return SyntheticWorkload(
        SyntheticSpec(
            hot_globals=3,
            hot_size=512,
            cold_spacer=7680,
            small_cluster=4,
            iterations=400,
            heap_churn=3,
            heap_persistent=2,
        )
    )


def workload_under_test(name: str):
    if name == "synthetic":
        return synthetic_workload()
    return make_workload(name)


WORKLOADS = ["deltablue", "espresso", "synthetic"]


@pytest.mark.parametrize("config", GEOMETRIES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_measure_trace_matches_scalar_measure(name, config):
    """Batched trace measurement == scalar per-event measurement."""
    workload = workload_under_test(name)
    input_name = workload.train_input
    trace = record_trace(workload_under_test(name), input_name)
    batched = measure_trace(trace, NaturalResolver(), config)
    scalar = scalar_measure(
        workload_under_test(name), input_name, NaturalResolver(), config
    )
    assert batched.cache == scalar.cache
    assert batched.cache.accesses > 0
    assert batched.cache.misses > 0


@pytest.mark.parametrize("config", GEOMETRIES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_classified_measure_matches_scalar(name, config):
    """Three-Cs split of the batched engine == the scalar shadow's."""
    workload = workload_under_test(name)
    input_name = workload.train_input
    trace = record_trace(workload_under_test(name), input_name)
    batched = measure_trace(trace, RandomResolver(seed=7), config, classify=True)
    scalar = scalar_measure(
        workload_under_test(name),
        input_name,
        RandomResolver(seed=7),
        config,
        classify=True,
    )
    assert batched.cache == scalar.cache
    assert batched.cache.compulsory > 0


@pytest.mark.parametrize("config", GEOMETRIES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_streaming_batch_sink_matches_scalar(name, config):
    """``measure`` on a live workload == scalar per-event measurement."""
    batched = measure(
        workload_under_test(name),
        workload_under_test(name).train_input,
        RandomResolver(seed=99),
        config,
    )
    scalar = scalar_measure(
        workload_under_test(name),
        workload_under_test(name).train_input,
        RandomResolver(seed=99),
        config,
    )
    assert batched.cache == scalar.cache


@pytest.mark.parametrize("config", GEOMETRIES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_live_classified_measure_matches_scalar(name, config):
    """Live ``measure`` with the three-Cs split, pages too == the oracle."""
    workload = workload_under_test(name)
    batched = measure(
        workload,
        workload.train_input,
        NaturalResolver(),
        config,
        classify=True,
        track_pages=True,
    )
    scalar = scalar_measure(
        workload_under_test(name),
        workload.train_input,
        NaturalResolver(),
        config,
        classify=True,
        track_pages=True,
    )
    assert batched.cache == scalar.cache
    assert batched.paging == scalar.paging


@pytest.mark.parametrize("config", GEOMETRIES)
def test_parity_under_ccdp_placement(config):
    """Parity also holds when replaying under a CCDP placement map."""
    workload = workload_under_test("deltablue")
    trace = record_trace(workload, workload.train_input)
    _profile, placement = build_placement(
        workload_under_test("deltablue"), workload.train_input, config
    )
    batched = measure_trace(trace, CCDPResolver(placement), config)
    scalar = scalar_measure(
        workload_under_test("deltablue"),
        workload.train_input,
        CCDPResolver(placement),
        config,
    )
    assert batched.cache == scalar.cache


@pytest.mark.parametrize("name", WORKLOADS)
def test_batched_profile_equals_scalar_profile(name):
    """profile_trace == live ProfilerSink, down to dict insertion order."""
    workload = workload_under_test(name)
    input_name = workload.train_input
    trace = record_trace(workload, input_name)
    batched = profile_trace(trace)
    scalar = scalar_profile(workload_under_test(name), input_name)
    assert_same_profile(batched, scalar)


def test_profile_trace_peak_memory_on_compress():
    """The TRG pass folds its walk in bounded chunks.

    Buffering every edge increment of compress's training trace (2.4M
    of them) before folding peaks near 157 MiB; the chunked fold peaks
    near 37 MiB.
    """
    workload = make_workload("compress")
    trace = record_trace(workload, workload.train_input)
    tracemalloc.start()
    try:
        profile_trace(trace)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20


@pytest.mark.parametrize("classify", [False, True])
def test_every_geometry_is_vectorized(classify, monkeypatch):
    """No geometry falls back: the batched simulator builds no per-access one."""
    built = []
    scalar_init = CacheSimulator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        scalar_init(self, *args, **kwargs)

    monkeypatch.setattr(CacheSimulator, "__init__", counting_init)
    addr = np.arange(0, 40 * 1024, 96, dtype=np.int64)
    ones = np.ones(len(addr), dtype=np.int64)
    for ways in (1, 2, 4, 8):
        config = CacheConfig(size=8192, line_size=32, associativity=ways)
        engine = BatchCacheSimulator(config, classify=classify)
        assert engine.vectorized is True
        engine.consume(addr, ones * 40, ones, ones, ones)
        assert engine.stats.accesses == 2 * len(addr)
    assert built == []


def test_zero_size_reference_counts_no_access():
    """A zero-size reference at a line-aligned address touches no block.

    The batched engine used to count it whenever no other reference of
    the chunk spanned two lines.  A negative size (an uploaded trace is
    not checked for one) touches no block either.
    """
    config = CacheConfig(size=8192, line_size=32, associativity=1)
    for addrs, sizes, accesses in (
        ([64, 128], [4, 0], 1),
        ([64, 128, 30], [4, 0, 4], 3),  # 30..33 spans two lines
        ([64, 200, 30], [4, -40, 4], 3),
    ):
        scalar = CacheSimulator(config)
        for a, size in zip(addrs, sizes):
            scalar.access(a, size, 1, Category.HEAP)
        engine = BatchCacheSimulator(config)
        zeros = np.zeros(len(addrs), dtype=np.int64)
        engine.consume(
            np.array(addrs, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
            zeros + 1,
            zeros + Category.HEAP,
            zeros,
        )
        assert engine.stats == scalar.stats
        assert engine.stats.accesses == accesses


def test_direct_mapped_scalar_fast_path_matches_lru_path():
    """CacheSimulator's associativity==1 fast path == generic LRU path."""
    config = CacheConfig(size=4096, line_size=32, associativity=1)
    fast = CacheSimulator(config)
    # classify=True forces the general path (three-Cs bookkeeping).
    slow = CacheSimulator(config, classify=True)
    workload = workload_under_test("synthetic")
    trace = record_trace(workload, workload.train_input)
    for sim in (fast, slow):
        trace.replay(ReplaySink(NaturalResolver(), sim))
    assert fast.stats.accesses == slow.stats.accesses
    assert fast.stats.misses == slow.stats.misses
    assert fast.stats.writebacks == slow.stats.writebacks
    assert fast.stats.misses_by_object == slow.stats.misses_by_object


def _test_trace_and_placement(name: str):
    workload = make_workload(name)
    _profile, placement = build_placement(
        workload, trace=cached_trace(name, workload.train_input)
    )
    return cached_trace(name, workload.test_input), placement


def _replay_evictions_in_chunks(trace, resolver, chunk_events: int):
    """``replay_evictions`` with the trace cut into ``chunk_events`` chunks."""
    cache = BatchCacheSimulator(track_evictions=True)
    obj, _offset, size, cat, store = trace.columns()
    for start, end, addr in trace.iter_resolved(resolver, chunk_events):
        cache.consume(
            addr, size[start:end], obj[start:end], cat[start:end], store[start:end]
        )
    return cache


@pytest.mark.parametrize("name", ["m88ksim", "espresso", "deltablue"])
def test_eviction_matrix_matches_scalar(name):
    """The batched (evictor, victim) dict == the oracle's, in insertion order.

    At the default chunk size and at 1000 events, where each set's
    carried owner crosses many chunk boundaries.
    """
    trace, placement = _test_trace_and_placement(name)
    for make_resolver in (NaturalResolver, lambda: CCDPResolver(placement)):
        oracle = CacheSimulator(track_evictions=True)
        trace.replay(ReplaySink(make_resolver(), oracle))
        assert oracle.evictions
        for batched in (
            replay_evictions(trace, make_resolver()),
            _replay_evictions_in_chunks(trace, make_resolver(), 1000),
        ):
            assert list(batched.evictions.items()) == list(oracle.evictions.items())
            assert batched.stats == oracle.stats


@pytest.mark.parametrize("ways", [1, 2, 4])
def test_two_level_replay_matches_scalar(ways):
    """``TwoLevelCache.replay`` == the per-access pair, whole and cut mid-chunk."""
    trace, placement = _test_trace_and_placement("m88ksim")
    l1 = CacheConfig(size=8192, line_size=32, associativity=ways)
    mid_chunk = DEFAULT_CHUNK_EVENTS + 1000
    assert mid_chunk < trace.events
    for resolver, max_events in (
        (NaturalResolver, None),
        (lambda: CCDPResolver(placement), None),
        (NaturalResolver, mid_chunk),
    ):
        batched = hierarchy.TwoLevelCache(l1)
        oracle = ScalarTwoLevelCache(l1)
        replayed = batched.replay(trace, resolver(), max_events)
        assert replayed == oracle.replay(trace, resolver(), max_events)
        assert replayed == (max_events or trace.events)
        assert batched.stats == oracle.stats
        assert batched.l2.stats.accesses > 0


def test_l2_penalties_match_scalar(monkeypatch):
    """The two-level calibration prices every entity as the oracle pair does."""
    batched = {}
    for name in all_programs():
        workload = make_workload(name)
        batched[name] = hierarchy.entity_l2_penalties(
            cached_trace(name, workload.train_input)
        )
    monkeypatch.setattr(hierarchy, "TwoLevelCache", ScalarTwoLevelCache)
    for name in all_programs():
        workload = make_workload(name)
        oracle = hierarchy.entity_l2_penalties(cached_trace(name, workload.train_input))
        assert batched[name] == oracle, name
        assert oracle
