"""Unit tests for the structure-of-arrays trace recorder.

:class:`TraceRecorder` is the substrate of the batched pipeline; these
tests pin its column semantics, lifetime-op bookkeeping, and the
exactness of :meth:`TraceRecorder.replay` and :meth:`TraceRecorder.stats`
against the live-run equivalents.
"""

from __future__ import annotations

import numpy as np

from repro.trace.buffer import DEFAULT_CHUNK_EVENTS, record_trace
from repro.trace.sinks import TraceSink
from repro.workloads import make_workload
from tests.oracles import StatsSink


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
    def test_replay_reproduces_live_event_sequence(self):
        workload = make_workload("deltablue")
        trace = record_trace(workload, workload.train_input)

        live = _EventLog()
        make_workload("deltablue").run(live, workload.train_input)
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

        workload = make_workload("espresso")
        trace = record_trace(workload, workload.train_input)
        addr = trace.resolve(NaturalResolver())

        class _AddressLog(TraceSink):
            def __init__(self):
                self.resolver = NaturalResolver()
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
