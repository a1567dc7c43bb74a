"""Unit tests for the sink protocol and the per-event recording oracle."""

from __future__ import annotations

from repro.trace.events import Category, ObjectInfo
from repro.trace.sinks import TraceSink
from tests.oracles import RecordingSink, StatsSink


def _emit_sample(sink: TraceSink) -> None:
    sink.on_object(ObjectInfo(1, Category.GLOBAL, 64, "g"))
    sink.on_access(1, 0, 4, False, Category.GLOBAL)
    info = ObjectInfo(2, Category.HEAP, 32, "h")
    sink.on_alloc(info, (0x10, 0x20))
    sink.on_access(2, 8, 4, True, Category.HEAP)
    sink.on_free(2)
    sink.on_stack_depth(96)
    sink.on_end()


class TestBaseSink:
    def test_all_hooks_are_noops(self):
        # Must not raise anywhere.
        _emit_sample(TraceSink())


class TestRecordingSink:
    def test_records_objects_and_stack_depth(self):
        sink = RecordingSink()
        _emit_sample(sink)
        assert len(sink.objects) == 1
        assert sink.max_stack_depth == 96

    def test_replay_reproduces_stats(self):
        recorder = RecordingSink()
        _emit_sample(recorder)
        direct = StatsSink()
        _emit_sample(direct)
        replayed = StatsSink()
        recorder.replay(replayed)
        assert replayed.stats.memory_refs == direct.stats.memory_refs
        assert replayed.stats.alloc_count == direct.stats.alloc_count
        assert replayed.stats.max_stack_depth == direct.stats.max_stack_depth

    def test_replay_delivers_alloc_return_addresses(self):
        recorder = RecordingSink()
        _emit_sample(recorder)
        captured = []

        class Capture(TraceSink):
            def on_alloc(self, info, return_addresses):
                captured.append(return_addresses)

        recorder.replay(Capture())
        assert captured == [(0x10, 0x20)]
