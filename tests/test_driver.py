"""Tests for the per-event replay oracle and the end-to-end experiment driver."""

from __future__ import annotations

import pytest

from repro.cache.config import CacheConfig
from repro.runtime.driver import (
    build_placement,
    collect_stats,
    measure,
    profile_workload,
    run_experiment,
)
from repro.runtime.resolvers import NaturalResolver
from repro.trace.events import Category, ObjectInfo
from tests.oracles import CacheSimulator, ReplaySink, ScalarPageTracker


class TestReplaySink:
    def test_accesses_resolve_to_addresses(self):
        resolver = NaturalResolver()
        cache = CacheSimulator(CacheConfig(1024, 32, 1))
        sink = ReplaySink(resolver, cache)
        sink.on_object(ObjectInfo(1, Category.GLOBAL, 64, "g"))
        sink.on_access(1, 0, 4, False, Category.GLOBAL)
        sink.on_access(1, 0, 4, False, Category.GLOBAL)
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1

    def test_heap_lifecycle_through_replay(self):
        resolver = NaturalResolver()
        cache = CacheSimulator(CacheConfig(1024, 32, 1))
        sink = ReplaySink(resolver, cache)
        info = ObjectInfo(2, Category.HEAP, 32, "h")
        sink.on_alloc(info, (0x1,))
        sink.on_access(2, 8, 4, True, Category.HEAP)
        sink.on_free(2)
        assert cache.stats.misses_by_category[Category.HEAP] == 1

    def test_page_tracking(self):
        resolver = NaturalResolver()
        cache = CacheSimulator(CacheConfig(1024, 32, 1))
        pages = ScalarPageTracker()
        sink = ReplaySink(resolver, cache, pages)
        sink.on_object(ObjectInfo(1, Category.GLOBAL, 64, "g"))
        sink.on_access(1, 0, 4, False, Category.GLOBAL)
        assert pages.total_pages == 1


class TestDriver:
    def test_profile_workload(self, toy_workload, small_cache):
        profile = profile_workload(
            toy_workload, toy_workload.train_input, small_cache
        )
        assert profile.total_accesses > 0
        assert profile.entity_by_key("g:table_a") is not None

    def test_collect_stats(self, toy_workload):
        stats = collect_stats(toy_workload, toy_workload.train_input)
        assert stats.memory_refs > 0
        assert stats.alloc_count > 0

    def test_measure_natural(self, toy_workload, small_cache):
        result = measure(
            toy_workload,
            toy_workload.train_input,
            NaturalResolver(),
            small_cache,
            classify=True,
            track_pages=True,
        )
        stats = result.cache
        assert stats.accesses > 0
        assert stats.compulsory + stats.conflict + stats.capacity == stats.misses
        assert result.paging.total_pages > 0

    def test_build_placement_respects_workload_heap_flag(
        self, toy_workload, small_cache
    ):
        _profile, placement = build_placement(toy_workload, cache_config=small_cache)
        assert placement.heap_table  # toy workload has place_heap=True

    def test_run_experiment_shapes(self, toy_workload, small_cache):
        result = run_experiment(
            toy_workload, cache_config=small_cache, include_random=True
        )
        assert result.workload == "toy"
        assert result.train_input == "train"
        assert result.test_input == "test"
        assert result.original.cache.accesses == result.ccdp.cache.accesses
        assert result.random is not None

    def test_experiment_is_deterministic(self, toy_workload, small_cache):
        first = run_experiment(toy_workload, cache_config=small_cache)
        second = run_experiment(toy_workload, cache_config=small_cache)
        assert first.original.cache.miss_rate == second.original.cache.miss_rate
        assert first.ccdp.cache.miss_rate == second.ccdp.cache.miss_rate

    def test_same_input_experiment(self, toy_workload, small_cache):
        result = run_experiment(
            toy_workload,
            test_input=toy_workload.train_input,
            cache_config=small_cache,
        )
        assert result.test_input == result.train_input

    def test_miss_reduction_metric(self, toy_workload, small_cache):
        result = run_experiment(toy_workload, cache_config=small_cache)
        expected = 100.0 * (
            result.original.cache.miss_rate - result.ccdp.cache.miss_rate
        ) / result.original.cache.miss_rate
        assert result.miss_reduction_pct == pytest.approx(expected)

    def test_ccdp_not_worse_on_toy(self, toy_workload, small_cache):
        result = run_experiment(toy_workload, cache_config=small_cache)
        assert result.ccdp.cache.miss_rate <= result.original.cache.miss_rate * 1.05
