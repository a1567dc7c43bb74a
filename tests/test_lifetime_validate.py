"""Tests for lifetime analysis and the trace validator."""

from __future__ import annotations

import pytest

from repro.analysis.lifetime import (
    LifetimeSink,
    summarize_lifetimes,
)
from repro.trace.events import Category, ObjectInfo, TraceError
from repro.trace.validate import ValidatingSink
from tests.oracles import RecordingSink


def heap_info(obj_id: int, size: int = 32) -> ObjectInfo:
    return ObjectInfo(obj_id, Category.HEAP, size, f"h#{obj_id}")


class TestLifetimeSink:
    def test_span_measured_in_references(self):
        sink = LifetimeSink()
        sink.on_access(99, 0, 4, False, Category.GLOBAL)   # t=1
        sink.on_alloc(heap_info(1), ())
        for _ in range(5):
            sink.on_access(1, 0, 4, False, Category.HEAP)  # t=2..6
        sink.on_free(1)
        record = sink.lifetimes[1]
        assert record.born_at == 1
        assert record.died_at == 6
        assert record.references == 5
        assert record.span(sink.trace_length) == 5

    def test_never_freed_extends_to_trace_end(self):
        sink = LifetimeSink()
        sink.on_alloc(heap_info(1), ())
        for _ in range(10):
            sink.on_access(99, 0, 4, False, Category.GLOBAL)
        record = sink.lifetimes[1]
        assert record.died_at is None
        assert record.span(sink.trace_length) == 10

    def test_max_live_tracks_concurrency(self):
        sink = LifetimeSink()
        sink.on_alloc(heap_info(1), ())
        sink.on_alloc(heap_info(2), ())
        sink.on_free(1)
        sink.on_alloc(heap_info(3), ())
        assert sink.max_live == 2

    def test_summary_short_lived_share(self):
        sink = LifetimeSink()
        # Short-lived object: 2 refs of a 100-ref trace.
        sink.on_alloc(heap_info(1), ())
        sink.on_access(1, 0, 4, False, Category.HEAP)
        sink.on_access(1, 0, 4, False, Category.HEAP)
        sink.on_free(1)
        # Long-lived object spanning the rest.
        sink.on_alloc(heap_info(2), ())
        for _ in range(98):
            sink.on_access(2, 0, 4, False, Category.HEAP)
        sink.on_free(2)
        summary = summarize_lifetimes(sink, short_fraction=0.05)
        assert summary.objects == 2
        assert summary.short_lived_share == pytest.approx(50.0)
        assert summary.never_freed == 0

    def test_empty_summary(self):
        summary = summarize_lifetimes(LifetimeSink())
        assert summary.objects == 0
        assert summary.median_span == 0.0

    def test_deltablue_heap_is_mostly_short_lived(self):
        """The Figure 3 narrative, quantified on a real workload."""
        from repro.workloads import make_workload

        sink = LifetimeSink()
        workload = make_workload("deltablue")
        workload.run(sink, workload.train_input)
        summary = summarize_lifetimes(sink, short_fraction=0.05)
        assert summary.objects > 3000
        # Plan records die young; chain nodes live the whole run.  The
        # median heap object still lives a large fraction of the trace
        # (the chain), but hundreds of plan objects are short-lived.
        assert summary.short_lived_share > 10


class TestValidatingSink:
    def test_clean_trace_passes(self, toy_workload):
        recorder = RecordingSink()
        toy_workload.run(recorder, "train")
        validator = ValidatingSink(strict=False)
        recorder.replay(validator)
        assert validator.clean

    def test_forwards_to_inner_sink(self, toy_workload):
        recorder = RecordingSink()
        toy_workload.run(recorder, "train")
        inner = RecordingSink()
        validator = ValidatingSink(forward=inner)
        recorder.replay(validator)
        assert len(inner.events) == len(recorder.events)

    def test_access_to_unknown_object(self):
        sink = ValidatingSink()
        with pytest.raises(TraceError):
            sink.on_access(42, 0, 4, False, Category.GLOBAL)

    def test_out_of_bounds(self):
        sink = ValidatingSink()
        sink.on_object(ObjectInfo(1, Category.GLOBAL, 16, "g"))
        with pytest.raises(TraceError):
            sink.on_access(1, 12, 8, False, Category.GLOBAL)

    def test_use_after_free(self):
        sink = ValidatingSink()
        sink.on_alloc(heap_info(1), ())
        sink.on_free(1)
        with pytest.raises(TraceError):
            sink.on_access(1, 0, 4, False, Category.HEAP)

    def test_double_free(self):
        sink = ValidatingSink()
        sink.on_alloc(heap_info(1), ())
        sink.on_free(1)
        with pytest.raises(TraceError):
            sink.on_free(1)

    def test_free_of_global(self):
        sink = ValidatingSink()
        sink.on_object(ObjectInfo(1, Category.GLOBAL, 16, "g"))
        with pytest.raises(TraceError):
            sink.on_free(1)

    def test_category_mismatch(self):
        sink = ValidatingSink()
        sink.on_object(ObjectInfo(1, Category.GLOBAL, 16, "g"))
        with pytest.raises(TraceError):
            sink.on_access(1, 0, 4, False, Category.HEAP)

    def test_duplicate_object_id(self):
        sink = ValidatingSink()
        sink.on_object(ObjectInfo(1, Category.GLOBAL, 16, "g"))
        with pytest.raises(TraceError):
            sink.on_object(ObjectInfo(1, Category.GLOBAL, 16, "g2"))

    def test_lenient_mode_records_violations(self):
        sink = ValidatingSink(strict=False)
        sink.on_access(42, 0, 4, False, Category.GLOBAL)
        sink.on_free(43)
        assert not sink.clean
        assert [v.kind for v in sink.violations] == [
            "access-unknown", "free-unknown",
        ]

    def test_all_nine_workloads_validate(self):
        from repro.workloads import make_workload, workload_names

        for name in workload_names():
            workload = make_workload(name)
            validator = ValidatingSink(strict=True)
            workload.run(validator, workload.train_input)
