"""Tests for the analysis package: paging, miss-rate rows, heap scatter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.heap_scatter import (
    heap_scatter,
    scatter_correlation,
)
from repro.analysis.missrates import (
    MissRateRow,
    PlacementMissRates,
    average_reduction,
    average_row,
)
from repro.analysis.paging import PageTracker, PagingSummary
from repro.cache.simulator import CacheStats
from repro.trace.events import Category
from repro.trace.stats import WorkloadStats
from tests.oracles import ScalarPageTracker


class _OneReferencePages(PageTracker):
    """The product tracker fed one reference per chunk."""

    def touch(self, addr: int, size: int) -> None:
        self.touch_batch(np.array([addr]), np.array([size]))


class TestPageTracker:
    """Runs on the per-reference oracle; ``TestPageTrackerBatched`` on the product."""

    tracker = ScalarPageTracker

    def test_counts_distinct_pages(self):
        tracker = self.tracker(page_size=4096)
        tracker.touch(0, 4)
        tracker.touch(100, 4)
        tracker.touch(4096, 4)
        assert tracker.total_pages == 2
        assert tracker.references == 3

    def test_spanning_touch_counts_both_pages(self):
        tracker = self.tracker(page_size=4096)
        tracker.touch(4094, 4)
        assert tracker.total_pages == 2

    def test_working_set_constant_stream(self):
        tracker = self.tracker(page_size=4096)
        for _ in range(1000):
            tracker.touch(0, 4)
        assert tracker.working_set() == pytest.approx(1.0)

    def test_working_set_alternating_pages(self):
        tracker = self.tracker(page_size=4096)
        for index in range(1000):
            tracker.touch((index % 2) * 4096, 4)
        assert tracker.working_set() == pytest.approx(2.0)

    def test_working_set_phase_change(self):
        tracker = self.tracker(page_size=4096)
        for index in range(500):
            tracker.touch(0, 4)
        for index in range(500):
            tracker.touch((index % 8) * 4096, 4)
        ws = tracker.working_set(window_fraction=0.01)
        assert 1.0 < ws < 8.0

    def test_empty_tracker(self):
        tracker = self.tracker()
        assert tracker.working_set() == 0.0
        assert PagingSummary.from_tracker(tracker).total_pages == 0

    def test_window_of_one(self):
        tracker = self.tracker()
        tracker.touch(0, 4)
        assert tracker.working_set(window_fraction=0.0001) == pytest.approx(1.0)


class TestPageTrackerBatched(TestPageTracker):
    tracker = _OneReferencePages


class TestMissRateRows:
    def _stats(self, misses_per_cat):
        stats = CacheStats()
        stats.accesses = 1000
        stats.misses = sum(misses_per_cat.values())
        for category, count in misses_per_cat.items():
            stats.misses_by_category[category] = count
        return stats

    def test_from_stats_columns(self):
        stats = self._stats(
            {Category.STACK: 10, Category.GLOBAL: 50, Category.HEAP: 30,
             Category.CONST: 10}
        )
        rates = PlacementMissRates.from_stats(stats)
        assert rates.d_miss == pytest.approx(10.0)
        assert rates.global_ == pytest.approx(5.0)
        assert sum((rates.stack, rates.global_, rates.heap, rates.const)) == (
            pytest.approx(rates.d_miss)
        )

    def test_pct_reduction(self):
        row = MissRateRow(
            program="x",
            original=PlacementMissRates(10, 0, 10, 0, 0),
            ccdp=PlacementMissRates(6, 0, 6, 0, 0),
        )
        assert row.pct_reduction == pytest.approx(40.0)

    def test_zero_baseline_reduction_is_zero(self):
        row = MissRateRow(
            program="x",
            original=PlacementMissRates(0, 0, 0, 0, 0),
            ccdp=PlacementMissRates(0, 0, 0, 0, 0),
        )
        assert row.pct_reduction == 0.0

    def test_average_row(self):
        rows = [
            MissRateRow(
                "a",
                PlacementMissRates(10, 1, 9, 0, 0),
                PlacementMissRates(5, 1, 4, 0, 0),
            ),
            MissRateRow(
                "b",
                PlacementMissRates(20, 2, 18, 0, 0),
                PlacementMissRates(10, 0, 10, 0, 0),
            ),
        ]
        average = average_row(rows)
        assert average.original.d_miss == pytest.approx(15.0)
        assert average.ccdp.d_miss == pytest.approx(7.5)
        assert average_reduction(rows) == pytest.approx(50.0)

    def test_average_of_nothing_raises(self):
        with pytest.raises(ValueError):
            average_row([])


class TestHeapScatter:
    def _inputs(self):
        workload_stats = WorkloadStats()
        cache_stats = CacheStats()
        # Object 1: hot, large, low miss.  Object 2: tiny, few refs, high
        # miss.  Object 3: global (excluded).
        workload_stats.object_categories = {
            1: Category.HEAP,
            2: Category.HEAP,
            3: Category.GLOBAL,
        }
        workload_stats.object_sizes = {1: 4096, 2: 24, 3: 64}
        workload_stats.refs_by_object = {1: 1000, 2: 4, 3: 500}
        cache_stats.accesses_by_object = {1: 1000, 2: 4, 3: 500}
        cache_stats.misses_by_object = {1: 10, 2: 3, 3: 100}
        return workload_stats, cache_stats

    def test_scatter_excludes_non_heap(self):
        points = heap_scatter(*self._inputs())
        assert {p.obj_id for p in points} == {1, 2}

    def test_point_values(self):
        points = {p.obj_id: p for p in heap_scatter(*self._inputs())}
        assert points[2].miss_rate == pytest.approx(75.0)
        assert points[2].references == 4
        assert points[1].miss_rate == pytest.approx(1.0)

    def test_shape_summary(self):
        points = heap_scatter(*self._inputs())
        shape = scatter_correlation(points, high_miss_threshold=25.0)
        assert shape.num_objects == 2
        assert shape.median_refs_high_miss == 4
        assert shape.median_refs_low_miss == 1000
        assert shape.mean_size_high_miss == pytest.approx(24.0)

    def test_empty_scatter(self):
        shape = scatter_correlation([])
        assert shape.num_objects == 0
        assert shape.high_miss_share_of_heap_misses == 0.0
