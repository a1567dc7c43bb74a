"""Unit tests for workload statistics and the Table 3 size buckets."""

from __future__ import annotations

import pytest

from repro.trace.events import Category, ObjectInfo, STACK_OBJECT_ID
from repro.trace.stats import (
    SIZE_BUCKET_BOUNDS,
    SIZE_BUCKET_LABELS,
    size_breakdown,
    size_bucket,
)
from tests.oracles import StatsSink


class TestSizeBucket:
    @pytest.mark.parametrize(
        "size,expected",
        [
            (1, 0),
            (8, 0),
            (9, 1),
            (128, 1),
            (129, 2),
            (1024, 2),
            (1025, 3),
            (4096, 3),
            (4097, 4),
            (8192, 4),
            (8193, 5),
            (32768, 5),
            (32769, 6),
            (1 << 22, 6),
        ],
    )
    def test_bucket_boundaries_match_table3(self, size, expected):
        assert size_bucket(size) == expected

    def test_labels_cover_all_buckets(self):
        assert len(SIZE_BUCKET_LABELS) == len(SIZE_BUCKET_BOUNDS) + 1


class TestStatsSink:
    def _populated(self) -> StatsSink:
        sink = StatsSink()
        sink.on_object(ObjectInfo(1, Category.GLOBAL, 64, "g"))
        sink.on_object(ObjectInfo(2, Category.CONST, 16, "c"))
        for _ in range(6):
            sink.on_access(1, 0, 4, False, Category.GLOBAL)
        for _ in range(2):
            sink.on_access(1, 0, 4, True, Category.GLOBAL)
        sink.on_access(STACK_OBJECT_ID, 0, 4, False, Category.STACK)
        sink.on_access(2, 0, 4, False, Category.CONST)
        sink.on_alloc(ObjectInfo(3, Category.HEAP, 100, "h"), (1, 2))
        sink.on_access(3, 0, 4, True, Category.HEAP)
        sink.on_free(3)
        sink.on_compute(39)
        sink.on_stack_depth(128)
        return sink

    def test_loads_and_stores(self):
        stats = self._populated().stats
        assert stats.loads == 8
        assert stats.stores == 3
        assert stats.memory_refs == 11

    def test_instruction_accounting_includes_compute(self):
        stats = self._populated().stats
        assert stats.instructions == 11 + 39

    def test_pct_loads_stores(self):
        stats = self._populated().stats
        assert stats.pct_loads == pytest.approx(100 * 8 / 50)
        assert stats.pct_stores == pytest.approx(100 * 3 / 50)

    def test_refs_by_category(self):
        stats = self._populated().stats
        assert stats.refs_by_category[Category.GLOBAL] == 8
        assert stats.refs_by_category[Category.STACK] == 1
        assert stats.refs_by_category[Category.HEAP] == 1
        assert stats.refs_by_category[Category.CONST] == 1
        assert stats.pct_refs(Category.GLOBAL) == pytest.approx(100 * 8 / 11)

    def test_alloc_free_accounting(self):
        stats = self._populated().stats
        assert stats.alloc_count == 1
        assert stats.avg_alloc_size == 100
        assert stats.free_count == 1
        assert stats.avg_free_size == 100

    def test_stack_depth_tracks_size(self):
        stats = self._populated().stats
        assert stats.max_stack_depth == 128
        assert stats.object_sizes[STACK_OBJECT_ID] == 128

    def test_empty_stats_have_zero_rates(self):
        stats = StatsSink().stats
        assert stats.pct_loads == 0.0
        assert stats.avg_alloc_size == 0.0
        assert stats.pct_refs(Category.HEAP) == 0.0


class TestSizeBreakdown:
    def test_only_global_and_heap_counted(self):
        sink = self._mixed_sink()
        row = size_breakdown(sink.stats)
        # stack + const accesses must not appear.
        assert row.static_objects == 2

    def test_reference_percentages_sum_to_100(self):
        sink = self._mixed_sink()
        row = size_breakdown(sink.stats)
        assert sum(row.pct_refs_per_bucket) == pytest.approx(100.0)

    def test_avg_pct_per_object(self):
        sink = self._mixed_sink()
        row = size_breakdown(sink.stats)
        bucket = size_bucket(64)
        assert row.objects_per_bucket[bucket] == 1
        assert row.avg_pct_per_object(bucket) == pytest.approx(
            row.pct_refs_per_bucket[bucket]
        )

    def test_empty_bucket_avg_is_zero(self):
        sink = self._mixed_sink()
        row = size_breakdown(sink.stats)
        assert row.avg_pct_per_object(6) == 0.0

    @staticmethod
    def _mixed_sink() -> StatsSink:
        sink = StatsSink()
        sink.on_object(ObjectInfo(1, Category.GLOBAL, 64, "g"))
        sink.on_object(ObjectInfo(2, Category.CONST, 16, "c"))
        sink.on_alloc(ObjectInfo(3, Category.HEAP, 4000, "h"), ())
        for _ in range(3):
            sink.on_access(1, 0, 4, False, Category.GLOBAL)
        sink.on_access(2, 0, 4, False, Category.CONST)
        sink.on_access(3, 0, 4, False, Category.HEAP)
        sink.on_access(STACK_OBJECT_ID, 0, 4, False, Category.STACK)
        return sink
