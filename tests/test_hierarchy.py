"""Tests for the two-level cache hierarchy and overhead model."""

from __future__ import annotations

import pytest

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import TwoLevelCache
from repro.runtime.overhead import OverheadReport, estimate_overhead
from repro.trace.events import Category
from repro.trace.sinks import TraceSink
from repro.trace.stats import WorkloadStats
from tests.oracles import (
    ScalarTwoLevelCache,
    one_reference_hierarchy,
    scalar_resolver,
)


class TestTwoLevelCache:
    """Runs on the per-access oracle; ``TestTwoLevelCacheBatched`` on the product."""

    hierarchy = ScalarTwoLevelCache

    def _hierarchy(self):
        return self.hierarchy(CacheConfig(1024, 32, 1), CacheConfig(4096, 32, 1))

    def test_l1_hit_never_reaches_l2(self):
        cache = self._hierarchy()
        cache.access(0, 4, 1, Category.GLOBAL)
        cache.access(0, 4, 1, Category.GLOBAL)
        assert cache.l2.stats.accesses == 1  # only the first (miss)

    def test_l1_miss_goes_to_l2(self):
        cache = self._hierarchy()
        cache.access(0, 4, 1, Category.GLOBAL)
        cache.access(1024, 4, 2, Category.GLOBAL)
        cache.access(0, 4, 1, Category.GLOBAL)  # L1 conflict, L2 hit
        assert cache.l1.stats.misses == 3
        assert cache.l2.stats.misses == 2
        assert cache.l2.stats.accesses == 3

    def test_l1_conflicts_absorbed_by_bigger_l2(self):
        cache = self._hierarchy()
        for _ in range(50):
            cache.access(0, 4, 1, Category.GLOBAL)
            cache.access(1024, 4, 2, Category.GLOBAL)
        stats = cache.stats
        assert stats.l1_miss_rate > 90
        assert stats.l2_local_miss_rate < 10

    def test_global_l2_rate_relative_to_l1_accesses(self):
        cache = self._hierarchy()
        cache.access(0, 4, 1, Category.GLOBAL)
        cache.access(0, 4, 1, Category.GLOBAL)
        stats = cache.stats
        assert stats.global_l2_miss_rate == pytest.approx(50.0)

    def test_amat_bounds(self):
        cache = self._hierarchy()
        cache.access(0, 4, 1, Category.GLOBAL)
        cache.access(0, 4, 1, Category.GLOBAL)
        amat = cache.stats.average_access_time(1.0, 10.0, 60.0)
        # 1 + 0.5*(10 + 1.0*60) = 36
        assert amat == pytest.approx(36.0)

    def test_empty_hierarchy(self):
        stats = self._hierarchy().stats
        assert stats.average_access_time() == 0.0
        assert stats.global_l2_miss_rate == 0.0


class TestTwoLevelCacheBatched(TestTwoLevelCache):
    hierarchy = staticmethod(one_reference_hierarchy)


class TestOverheadModel:
    def _stats(self, allocs: int) -> WorkloadStats:
        stats = WorkloadStats()
        stats.alloc_count = allocs
        return stats

    def test_non_heap_program_has_zero_overhead(self):
        est = estimate_overhead(
            "compress", self._stats(0), heap_placed=False,
            original_misses=1000, ccdp_misses=600,
        )
        assert est.overhead_instructions == 0
        assert est.pays_off
        assert est.cycles_saved == pytest.approx(400 * 20.0)

    def test_heap_program_pays_per_allocation(self):
        est = estimate_overhead(
            "groff", self._stats(100), heap_placed=True,
            original_misses=1000, ccdp_misses=990,
        )
        assert est.overhead_instructions == 100 * 24
        assert est.net_cycles == pytest.approx(10 * 20.0 - 2400)
        assert not est.pays_off

    def test_zero_overhead_always_pays_off_even_with_zero_savings(self):
        est = estimate_overhead(
            "mgrid", self._stats(0), heap_placed=False,
            original_misses=1000, ccdp_misses=1000,
        )
        assert est.pays_off

    def test_report_lookup_and_render(self):
        rows = [
            estimate_overhead(
                "a", self._stats(0), False, 100, 50
            ),
            estimate_overhead(
                "b", self._stats(10), True, 100, 50
            ),
        ]
        report = OverheadReport(rows=rows)
        assert report.row_for("b").allocations == 10
        with pytest.raises(KeyError):
            report.row_for("zzz")
        text = report.render()
        assert "PaysOff" in text and "a" in text


class TestMemoryTraffic:
    def test_hierarchy_traffic_is_l2_fills_plus_writebacks(self):
        cache = one_reference_hierarchy(
            CacheConfig(1024, 32, 1), CacheConfig(4096, 32, 1)
        )
        cache.access(0, 4, 1, Category.GLOBAL, is_store=True)
        cache.access(1024, 4, 2, Category.GLOBAL)
        stats = cache.stats
        assert stats.memory_traffic_blocks == (
            stats.l2.misses + stats.l2.writebacks
        )

    def test_ccdp_reduces_memory_traffic_on_conflict_program(self):
        """Fewer L1 misses mean fewer L2 fills and fewer dirty evictions."""
        from repro.runtime.driver import build_placement
        from repro.runtime.resolvers import CCDPResolver, NaturalResolver
        from repro.trace.buffer import record_trace
        from repro.workloads import make_workload

        workload = make_workload("m88ksim")
        _profile, placement = build_placement(workload)
        trace = record_trace(workload, workload.test_input)
        traffic = {}
        for label, resolver in (
            ("natural", NaturalResolver()),
            ("ccdp", CCDPResolver(placement)),
        ):
            hierarchy = TwoLevelCache()
            hierarchy.replay(trace, resolver)
            traffic[label] = hierarchy.l1.stats.memory_traffic_blocks
        assert traffic["ccdp"] < traffic["natural"] * 0.7


class _PerEventHierarchy(TraceSink):
    """Drive the per-access two-level oracle one live access at a time.

    Objects are placed by the per-op twin of the product ``resolver``.
    """

    def __init__(self, resolver, hierarchy: ScalarTwoLevelCache):
        self.resolver = scalar_resolver(resolver)
        self.hierarchy = hierarchy

    def on_object(self, info) -> None:
        self.resolver.on_object(info)

    def on_alloc(self, info, return_addresses) -> None:
        self.resolver.on_alloc(info, return_addresses)

    def on_free(self, obj_id) -> None:
        self.resolver.on_free(obj_id)

    def on_access(self, obj_id, offset, size, is_store, category) -> None:
        addr = self.resolver.base_of[obj_id] + offset
        self.hierarchy.access(addr, size, obj_id, category, is_store)


class TestReplay:
    @pytest.mark.parametrize("program", ["m88ksim", "espresso"])
    def test_replay_equals_per_event_run(self, program):
        """Replaying a recording == driving the per-access oracle live."""
        from repro.runtime.driver import build_placement
        from repro.runtime.resolvers import CCDPResolver, NaturalResolver
        from repro.trace.buffer import record_trace
        from repro.workloads import make_workload

        workload = make_workload(program)
        trace = record_trace(workload, workload.test_input)
        _profile, placement = build_placement(workload)
        for make_resolver in (NaturalResolver, lambda: CCDPResolver(placement)):
            replayed = TwoLevelCache()
            assert replayed.replay(trace, make_resolver()) == trace.events
            live = ScalarTwoLevelCache()
            workload.run(
                _PerEventHierarchy(make_resolver(), live), workload.test_input
            )
            assert replayed.stats == live.stats

    def test_replay_stops_at_max_events(self):
        from repro.runtime.resolvers import NaturalResolver
        from repro.trace.buffer import record_trace
        from repro.workloads import make_workload

        workload = make_workload("mgrid")
        trace = record_trace(workload, workload.train_input)
        cache = TwoLevelCache()
        assert cache.replay(trace, NaturalResolver(), max_events=1000) == 1000
        assert cache.l1.stats.accesses >= 1000
