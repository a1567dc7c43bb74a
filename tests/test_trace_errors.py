"""Error paths of the trace layer: truncated and corrupt streams.

Every consumer of a trace — :class:`RecordingSink.replay`, the live
:class:`ReplaySink`, the columnar :class:`TraceRecorder` resolver behind
:func:`measure_trace` and :func:`run_adaptive`, and the batched profiler
behind :func:`profile_trace` and :func:`window_profile` — must fail
loudly with a :class:`TraceError` naming the offending object id, rather
than silently simulating garbage addresses or counting the access on
another entity.  For the simulators that includes an access outside its
object's lifetime: before its allocation or after its free.  A profile
names objects rather than resolving them, so the profilers accept a use
after free, as the live :class:`ProfilerSink` does.  Only heap objects
are freed: a free of a global, a constant or the stack is a corrupt
trace under every placement policy.
"""

from __future__ import annotations

import pytest

from repro.adaptive import run_adaptive, window_profile
from repro.cache.config import CacheConfig
from repro.profiling.batch import profile_trace
from repro.runtime.driver import measure_trace
from repro.core.placement_map import PlacementMap
from repro.runtime.resolvers import CCDPResolver, NaturalResolver, RandomResolver
from repro.trace.buffer import TraceRecorder, record_trace
from repro.trace.events import Category, ObjectInfo, TraceError
from repro.trace.sinks import TraceSink
from tests.oracles import (
    CacheSimulator,
    RecordingSink,
    ReplaySink,
    SamplingProfilerSink,
    assert_same_profile,
    scalar_window_profile,
)


def _global_info(obj_id: int = 1, size: int = 64) -> ObjectInfo:
    return ObjectInfo(
        obj_id=obj_id, category=Category.GLOBAL, size=size, symbol=f"g{obj_id}"
    )


def _heap_info(obj_id: int = 9) -> ObjectInfo:
    return ObjectInfo(
        obj_id=obj_id, category=Category.HEAP, size=48, symbol=f"h{obj_id}"
    )


def use_after_free_trace() -> TraceRecorder:
    """Heap object 9 is touched after its free."""
    recorder = TraceRecorder()
    recorder.on_object(_global_info(1))
    recorder.on_access(1, 0, 4, False, Category.GLOBAL)
    recorder.on_alloc(_heap_info(9), (0x2000,))
    recorder.on_access(9, 0, 4, True, Category.HEAP)
    recorder.on_free(9)
    recorder.on_access(9, 8, 4, False, Category.HEAP)
    recorder.on_end()
    return recorder


def static_free_trace() -> TraceRecorder:
    """Global 1 is freed at position 2, then touched again."""
    recorder = TraceRecorder()
    recorder.on_object(_global_info(1))
    recorder.on_access(1, 0, 4, False, Category.GLOBAL)
    recorder.on_alloc(_heap_info(9), (0x2000,))
    recorder.on_access(9, 0, 4, True, Category.HEAP)
    recorder.on_free(1)
    recorder.on_access(1, 8, 4, False, Category.GLOBAL)
    recorder.on_end()
    return recorder


def access_before_alloc_trace() -> TraceRecorder:
    """Heap object 9 is touched before its allocation."""
    recorder = TraceRecorder()
    recorder.on_object(_global_info(1))
    recorder.on_access(1, 0, 4, False, Category.GLOBAL)
    recorder.on_access(9, 0, 4, False, Category.HEAP)
    recorder.on_alloc(_heap_info(9), (0x2000,))
    recorder.on_access(9, 8, 4, True, Category.HEAP)
    recorder.on_end()
    return recorder


def undeclared_id_trace() -> TraceRecorder:
    """Object 5 is touched but never declared; the largest id is 9."""
    recorder = TraceRecorder()
    recorder.on_object(_global_info(1))
    recorder.on_alloc(_heap_info(9), (0x2000,))
    recorder.on_access(1, 0, 4, False, Category.GLOBAL)
    recorder.on_access(9, 0, 4, True, Category.HEAP)
    recorder.on_access(5, 0, 4, True, Category.HEAP)
    recorder.on_end()
    return recorder


def negative_offset_trace() -> TraceRecorder:
    """Global ``b`` (id 2) is read at offset -256, twice between reads of ``a``.

    Packing (entity, chunk) pairs as ``eid * span + chunk`` would alias
    chunk -1 of ``b`` onto chunk 1 of ``a`` (id 1), which is read last.
    """
    recorder = TraceRecorder()
    recorder.on_object(_global_info(1, size=512))
    recorder.on_object(_global_info(2))
    for _ in range(2):
        recorder.on_access(1, 0, 4, False, Category.GLOBAL)
        recorder.on_access(2, -256, 4, False, Category.GLOBAL)
    recorder.on_access(1, 256, 4, False, Category.GLOBAL)
    recorder.on_end()
    return recorder


class TestRecordingSinkReplay:
    def _recording_with_access(self, obj_id: int) -> RecordingSink:
        sink = RecordingSink()
        sink.on_object(_global_info(1))
        sink.on_access(obj_id, 0, 4, False, Category.GLOBAL)
        sink.on_end()
        return sink

    def test_valid_stream_replays(self):
        self._recording_with_access(1).replay(TraceSink())

    def test_access_to_undeclared_object_raises(self):
        recording = self._recording_with_access(99)
        with pytest.raises(TraceError, match="unknown object id 99"):
            recording.replay(TraceSink())

    def test_free_of_undeclared_object_raises(self):
        recording = RecordingSink()
        recording.on_free(7)
        recording.on_end()
        with pytest.raises(TraceError, match="unknown object id 7"):
            recording.replay(TraceSink())

    def test_allocated_object_becomes_known(self):
        recording = RecordingSink()
        info = ObjectInfo(obj_id=5, category=Category.HEAP, size=32, symbol="h5")
        recording.on_alloc(info, (0x1000,))
        recording.on_access(5, 0, 4, True, Category.HEAP)
        recording.on_free(5)
        recording.on_end()
        recording.replay(TraceSink())  # must not raise

    def test_error_precedes_delivery_to_target_sink(self):
        """The bad event must not leak into the downstream sink."""

        class CountingSink(TraceSink):
            accesses = 0

            def on_access(self, *args) -> None:
                self.accesses += 1

        recording = RecordingSink()
        recording.on_object(_global_info(1))
        recording.on_access(1, 0, 4, False, Category.GLOBAL)
        recording.on_access(42, 0, 4, False, Category.GLOBAL)
        recording.on_end()
        target = CountingSink()
        with pytest.raises(TraceError):
            recording.replay(target)
        assert target.accesses == 1


class TestReplaySinkErrors:
    def _config(self) -> CacheConfig:
        return CacheConfig(size=1024, line_size=32, associativity=1)

    def test_scalar_replay_rejects_unknown_object(self):
        sink = ReplaySink(NaturalResolver(), CacheSimulator(self._config()))
        sink.on_object(_global_info(1))
        sink.on_access(1, 0, 4, False, Category.GLOBAL)
        with pytest.raises(TraceError, match="unknown object id 33"):
            sink.on_access(33, 0, 4, False, Category.GLOBAL)

    def test_replay_rejects_use_after_free(self):
        """A freed heap object leaves the resolver; later access is corrupt."""
        sink = ReplaySink(NaturalResolver(), CacheSimulator(self._config()))
        info = ObjectInfo(obj_id=9, category=Category.HEAP, size=48, symbol="h9")
        sink.on_alloc(info, (0x2000,))
        sink.on_access(9, 0, 4, True, Category.HEAP)
        sink.on_free(9)
        with pytest.raises(TraceError, match="unknown object id 9"):
            sink.on_access(9, 0, 4, False, Category.HEAP)


class TestTraceRecorderErrors:
    def test_truncated_recording_cannot_resolve(self):
        recorder = TraceRecorder()
        recorder.on_object(_global_info(1))
        recorder.on_access(1, 0, 4, False, Category.GLOBAL)
        # no on_end(): the recording is truncated
        with pytest.raises(TraceError, match="truncated trace"):
            recorder.resolve(NaturalResolver())

    def test_truncated_recording_cannot_profile(self):
        recorder = TraceRecorder()
        recorder.on_object(_global_info(1))
        recorder.on_access(1, 0, 4, False, Category.GLOBAL)
        # no on_end(): the recording is truncated
        for profile in (
            lambda: profile_trace(recorder),
            lambda: window_profile(recorder, 1),
            lambda: run_adaptive(recorder, window_events=1),
        ):
            with pytest.raises(TraceError, match="truncated trace"):
                profile()

    def test_corrupt_recording_names_the_bad_object(self):
        recorder = TraceRecorder()
        recorder.on_object(_global_info(1))
        recorder.on_access(1, 0, 4, False, Category.GLOBAL)
        recorder.on_access(17, 8, 4, False, Category.GLOBAL)
        recorder.on_end()
        with pytest.raises(TraceError, match="unknown object id 17"):
            recorder.resolve(NaturalResolver())

    def test_recorded_workload_trace_resolves_clean(self, toy_workload):
        trace = record_trace(toy_workload, toy_workload.train_input)
        addresses = trace.resolve(NaturalResolver())
        assert len(addresses) == len(trace)
        assert (addresses >= 0).all()


class TestLifetimeErrors:
    """Batched consumers reject accesses outside an object's lifetime."""

    CONFIG = CacheConfig(size=1024, line_size=32, associativity=1)

    def test_measure_trace_rejects_use_after_free(self):
        with pytest.raises(TraceError, match="unknown object id 9"):
            measure_trace(use_after_free_trace(), NaturalResolver(), self.CONFIG)

    @pytest.mark.parametrize("policy", ["natural", "random", "ccdp"])
    def test_measure_trace_rejects_a_free_of_a_static(self, policy):
        """Only heap objects are freed: every policy rejects the trace alike."""
        if policy == "natural":
            resolver = NaturalResolver()
        elif policy == "random":
            resolver = RandomResolver(seed=12345)
        else:
            resolver = CCDPResolver(PlacementMap(cache_config=self.CONFIG))
        with pytest.raises(
            TraceError,
            match="corrupt trace: free of non-heap object id 1 at position 2",
        ):
            measure_trace(static_free_trace(), resolver, self.CONFIG)

    def test_measure_trace_rejects_access_before_alloc(self):
        with pytest.raises(TraceError, match="unknown object id 9"):
            measure_trace(
                access_before_alloc_trace(), NaturalResolver(), self.CONFIG
            )

    @pytest.mark.parametrize(
        "make_trace, bad",
        [(access_before_alloc_trace, 9), (undeclared_id_trace, 5)],
    )
    def test_profile_trace_rejects_access_before_declaration(self, make_trace, bad):
        with pytest.raises(TraceError, match=f"unknown object id {bad} "):
            profile_trace(make_trace(), self.CONFIG)

    @pytest.mark.parametrize(
        "make_trace, bad, cut",
        [(access_before_alloc_trace, 9, 2), (undeclared_id_trace, 5, 3)],
    )
    def test_window_profile_rejects_access_before_declaration(
        self, make_trace, bad, cut
    ):
        trace = make_trace()
        with pytest.raises(TraceError, match=f"unknown object id {bad} "):
            window_profile(trace, cut, self.CONFIG)
        # A cut before the bad access profiles the clean prefix.
        assert_same_profile(
            window_profile(trace, cut - 1, self.CONFIG),
            scalar_window_profile(trace, cut - 1, self.CONFIG),
        )

    def test_profile_accepts_use_after_free(self):
        """A profile names objects: a freed object keeps its entity."""
        trace = use_after_free_trace()
        profile = profile_trace(trace, self.CONFIG)
        assert_same_profile(
            profile, scalar_window_profile(trace, trace.events, self.CONFIG)
        )
        assert profile.entities[2].refs == 2  # the heap entity of object 9

    def test_negative_object_id_is_rejected(self):
        recorder = TraceRecorder()
        recorder.on_object(_global_info(1))
        recorder.on_access(1, 0, 4, False, Category.GLOBAL)
        recorder.on_access(-3, 0, 4, False, Category.GLOBAL)
        recorder.on_end()
        with pytest.raises(TraceError, match="unknown object id -3 "):
            profile_trace(recorder, self.CONFIG)

    def test_adaptive_rejects_use_after_free(self):
        with pytest.raises(TraceError, match="unknown object id 9"):
            run_adaptive(use_after_free_trace(), self.CONFIG, window_events=2)

    def test_adaptive_rejects_undeclared_id(self):
        with pytest.raises(TraceError, match="unknown object id 5"):
            run_adaptive(undeclared_id_trace(), self.CONFIG, window_events=2)

    def test_profile_trace_rejects_negative_offset(self):
        """Packed per entity, b's chunk -1 would count as a's chunk 1."""
        with pytest.raises(
            TraceError, match="negative offset -256 into object id 2 at position 1"
        ):
            profile_trace(negative_offset_trace(), self.CONFIG)

    def test_window_profile_rejects_negative_offset(self):
        trace = negative_offset_trace()
        with pytest.raises(TraceError, match="negative offset -256 .* position 1"):
            window_profile(trace, 2, self.CONFIG)
        # A cut before the bad access profiles the clean prefix.
        assert_same_profile(
            window_profile(trace, 1, self.CONFIG),
            scalar_window_profile(trace, 1, self.CONFIG),
        )

    def test_measure_trace_rejects_negative_offset(self):
        with pytest.raises(TraceError, match="negative offset -256 .* position 1"):
            measure_trace(negative_offset_trace(), NaturalResolver(), self.CONFIG)

    @pytest.mark.parametrize("window_events", [1, 2])
    def test_adaptive_rejects_negative_offset(self, window_events):
        """Caught by the training profile (2) or the window check (1)."""
        with pytest.raises(TraceError, match="negative offset -256 .* position 1"):
            run_adaptive(
                negative_offset_trace(), self.CONFIG, window_events=window_events
            )

    def test_per_event_replay_agrees(self):
        """The per-event sink rejects the same accesses with the same text."""
        for trace, message in (
            (use_after_free_trace(), "unknown object id 9"),
            (access_before_alloc_trace(), "unknown object id 9"),
            (undeclared_id_trace(), "unknown object id 5"),
            (negative_offset_trace(), "negative offset -256 into object id 2"),
        ):
            sink = ReplaySink(NaturalResolver(), CacheSimulator(self.CONFIG))
            with pytest.raises(TraceError, match=message):
                trace.replay(sink)

    def test_profiler_sink_rejects_negative_offset(self):
        """The live profilers reject what profile_trace rejects, same text.

        The sampling sink's window covers positions 0, 2 and 4 only, so
        the bad accesses take its path outside the window.
        """
        trace = negative_offset_trace()
        message = "negative offset -256 into object id 2 at position 1"
        with pytest.raises(TraceError, match=message):
            scalar_window_profile(trace, trace.events, self.CONFIG)
        with pytest.raises(TraceError, match=message):
            trace.replay(SamplingProfilerSink(window=1, period=2))

    def test_free_then_realloc_of_a_fresh_id_is_valid(self):
        """Heap churn with fresh ids resolves cleanly, frees included."""
        recorder = TraceRecorder()
        recorder.on_alloc(_heap_info(9), (0x2000,))
        recorder.on_access(9, 0, 4, True, Category.HEAP)
        recorder.on_free(9)
        recorder.on_alloc(_heap_info(10), (0x2000,))
        recorder.on_access(10, 0, 4, True, Category.HEAP)
        recorder.on_free(10)
        recorder.on_end()
        result = measure_trace(recorder, NaturalResolver(), self.CONFIG)
        assert result.cache.accesses == 2
