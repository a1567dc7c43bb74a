"""Unit tests for the structure-of-arrays trace recorder.

:class:`TraceRecorder` is the substrate of the batched pipeline; these
tests pin its column semantics, lifetime-op bookkeeping, and the
exactness of :meth:`TraceRecorder.replay` and :meth:`TraceRecorder.stats`
against the live-run equivalents.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.trace.buffer import (
    BLOCK_ACCESSES,
    DEFAULT_CHUNK_EVENTS,
    TraceRecorder,
    record_trace,
)
from repro.trace.events import Category, ObjectInfo
from repro.trace.sinks import TraceSink
from repro.workloads import make_workload, workload_names
from repro.workloads.drift import drift_workload
from tests.oracles import StatsSink

#: The nine paper programs and one drift scenario.
_RUNS = workload_names() + ["phase-change"]


def _run(name):
    """A fresh workload and the input recorded of it: training, or drift's test."""
    if name == "phase-change":
        return drift_workload(name), "test"
    workload = make_workload(name)
    return workload, workload.train_input


class _EventLog(TraceSink):
    """Records the full sink-call sequence for replay comparison."""

    def __init__(self):
        self.calls = []

    def on_object(self, info):
        self.calls.append(("object", info.obj_id))

    def on_access(self, obj_id, offset, size, is_store, category):
        self.calls.append(("access", obj_id, offset, size, is_store, category))

    def on_alloc(self, info, return_addresses):
        self.calls.append(("alloc", info.obj_id, tuple(return_addresses)))

    def on_free(self, obj_id):
        self.calls.append(("free", obj_id))

    def on_compute(self, instructions):
        self.calls.append(("compute", instructions))

    def on_stack_depth(self, depth):
        self.calls.append(("stack", depth))

    def on_end(self):
        self.calls.append(("end",))


class TestTraceRecorder:
    @pytest.mark.parametrize("name", _RUNS)
    def test_replay_reproduces_live_event_sequence(self, name):
        """A plain sink sees, live, the calls the recording replays."""
        workload, input_name = _run(name)
        trace = record_trace(workload, input_name)

        live = _EventLog()
        _run(name)[0].run(live, input_name)
        replayed = _EventLog()
        trace.replay(replayed)

        # Stack-depth events are recorded only at new maxima; the replay
        # is otherwise event-for-event identical, in order.
        live_calls = [c for c in live.calls if c[0] != "stack"]
        replay_calls = [c for c in replayed.calls if c[0] != "stack"]
        assert replay_calls == live_calls

    def test_stats_equal_stats_sink(self):
        workload = make_workload("espresso")
        trace = record_trace(workload, workload.train_input)
        sink = StatsSink()
        make_workload("espresso").run(sink, workload.train_input)
        assert trace.stats() == sink.stats

    def test_lifetime_ops_exclude_compute(self):
        workload = make_workload("deltablue")
        trace = record_trace(workload, workload.train_input)
        kinds = {kind for _pos, kind, _payload in trace.lifetime_ops}
        from repro.trace.buffer import _OP_COMPUTE

        assert _OP_COMPUTE not in kinds
        assert len(trace.lifetime_ops) < len(trace.ops)
        assert trace.compute_instructions > 0

    def test_columns_are_flat_and_sized(self):
        workload = make_workload("go")
        trace = record_trace(workload, workload.train_input)
        obj, offset, size, cat, store = trace.columns()
        assert len(obj) == trace.events == len(trace)
        assert offset.dtype == np.int64
        assert trace.nbytes >= trace.events * (4 + 8 + 4 + 1 + 1)

    def test_default_chunk_is_power_of_two(self):
        assert DEFAULT_CHUNK_EVENTS & (DEFAULT_CHUNK_EVENTS - 1) == 0


class TestResolve:
    def test_resolve_matches_per_event_resolution(self):
        from repro.runtime.resolvers import NaturalResolver
        from tests.oracles import ScalarNaturalResolver

        workload = make_workload("espresso")
        trace = record_trace(workload, workload.train_input)
        addr = trace.resolve(NaturalResolver())

        class _AddressLog(TraceSink):
            def __init__(self):
                self.resolver = ScalarNaturalResolver()
                self.addresses = []

            def on_object(self, info):
                self.resolver.on_object(info)

            def on_alloc(self, info, return_addresses):
                self.resolver.on_alloc(info, return_addresses)

            def on_free(self, obj_id):
                self.resolver.on_free(obj_id)

            def on_access(self, obj_id, offset, size, is_store, category):
                self.addresses.append(self.resolver.base_of[obj_id] + offset)

        log = _AddressLog()
        make_workload("espresso").run(log, workload.train_input)
        assert addr.tolist() == log.addresses


class TestPendingAccesses:
    """Accesses wait in the recorder's pending list until a block fills."""

    @staticmethod
    def _recorder():
        recorder = TraceRecorder()
        recorder.on_object(ObjectInfo(1, Category.GLOBAL, 64, "g"))
        return recorder, recorder.access_writer()

    def test_len_columns_and_op_positions_count_pending_accesses(self):
        recorder, write = self._recorder()
        for i in range(3):
            write((1, 4 * i, 4, i == 2, Category.GLOBAL))
        assert len(recorder) == 3
        obj, offset, size, cat, store = recorder.columns()
        assert obj.tolist() == [1, 1, 1]
        assert offset.tolist() == [0, 4, 8]
        assert size.tolist() == [4, 4, 4]
        assert cat.tolist() == [int(Category.GLOBAL)] * 3
        assert store.tolist() == [0, 0, 1]
        del obj, offset, size, cat, store
        write((1, 12, 4, False, Category.GLOBAL))
        recorder.on_compute(7)
        write((1, 16, 4, True, Category.GLOBAL))
        recorder.on_stack_depth(32)
        recorder.on_end()
        assert [op[:2] for op in recorder.ops] == [(0, 0), (4, 4), (5, 3)]
        assert len(recorder) == 5
        assert recorder.columns()[1].tolist() == [0, 4, 8, 12, 16]

    def test_op_hooks_convert_full_blocks(self):
        recorder, write = self._recorder()
        longest = 0
        for i in range(3 * BLOCK_ACCESSES):
            write((1, i % 16 * 4, 4, i % 3 == 0, Category.GLOBAL))
            if i % 1000 == 999:
                recorder.on_compute(1)
                longest = max(longest, len(recorder._pending))
        assert longest < 5 * (BLOCK_ACCESSES + 1000)
        positions = [position for position, *_ in recorder.ops[1:]]
        assert positions == list(range(1000, 3 * BLOCK_ACCESSES + 1, 1000))
        recorder.on_end()
        offset = recorder.columns()[1]
        assert offset.tolist() == [i % 16 * 4 for i in range(3 * BLOCK_ACCESSES)]

    def test_value_outside_its_column_rejected(self):
        recorder, write = self._recorder()
        write((1, 0, 1 << 40, False, Category.GLOBAL))
        with pytest.raises(OverflowError):
            recorder.on_end()

    def test_finished_recording_is_freed_without_a_collection(self):
        gc.disable()
        try:
            trace = record_trace(make_workload("deltablue"), "chain-900")
            assert len(trace) and len(trace.columns()[0]) == len(trace)
            alive = weakref.ref(trace)
            del trace
            assert alive() is None
        finally:
            gc.enable()
