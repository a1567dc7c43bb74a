"""Unit tests for the Program execution context."""

from __future__ import annotations

import pytest

from repro.trace.events import Category, TraceError
from repro.vm.program import Program
from tests.oracles import RecordingSink


@pytest.fixture
def sink() -> RecordingSink:
    return RecordingSink()


@pytest.fixture
def program(sink) -> Program:
    return Program(sink)


class TestDeclaration:
    def test_globals_get_sequential_ids_and_decl_order(self, program):
        a = program.add_global("a", 8)
        b = program.add_global("b", 16)
        assert a.obj_id == 1 and b.obj_id == 2
        program.start()

    def test_constants_are_const_category(self, program):
        c = program.add_constant("c", 8)
        assert c.category is Category.CONST

    def test_declaration_after_start_rejected(self, program):
        program.start()
        with pytest.raises(TraceError):
            program.add_global("late", 8)

    def test_zero_size_rejected(self, program):
        with pytest.raises(TraceError):
            program.add_global("empty", 0)

    def test_start_publishes_static_objects(self, program, sink):
        program.add_global("a", 8)
        program.add_constant("c", 8)
        program.start()
        assert [info.symbol for info in sink.objects] == ["a", "c"]


class TestRunControl:
    def test_double_start_rejected(self, program):
        program.start()
        with pytest.raises(TraceError):
            program.start()

    def test_finish_before_start_rejected(self, program):
        with pytest.raises(TraceError):
            program.finish()

    def test_double_finish_rejected(self, program):
        program.start()
        program.finish()
        with pytest.raises(TraceError):
            program.finish()

    def test_finish_reports_stack_depth_and_end(self, program, sink):
        program.start()
        program.push_frame(256)
        program.pop_frame()
        program.finish()
        assert sink.max_stack_depth == 256
        assert sink.ended


class TestAccesses:
    def test_load_store_emit_events(self, program, sink):
        g = program.add_global("g", 64)
        program.start()
        program.load(g, 0)
        program.store(g, 8, size=8)
        loads = [e for e in sink.events if not e.is_store]
        stores = [e for e in sink.events if e.is_store]
        assert len(loads) == 1 and len(stores) == 1
        assert stores[0].size == 8
        # A plain sink's on_access sees a bool and a Category member.
        for event in sink.events:
            assert type(event.is_store) is bool
            assert event.category is Category.GLOBAL

    def test_out_of_bounds_access_rejected(self, program):
        g = program.add_global("g", 8)
        program.start()
        with pytest.raises(TraceError):
            program.load(g, 8)

    def test_access_spanning_end_rejected(self, program):
        g = program.add_global("g", 10)
        program.start()
        with pytest.raises(TraceError):
            program.load(g, 8, size=4)

    def test_negative_offset_rejected(self, program):
        g = program.add_global("g", 8)
        program.start()
        with pytest.raises(TraceError):
            program.store(g, -4)

    @pytest.mark.parametrize(
        "emit, offset, size",
        [("load", 8, -4), ("store", 16, -100), ("load", 0, 0), ("store", 60, 0)],
    )
    def test_access_smaller_than_a_byte_rejected(
        self, program, sink, emit, offset, size
    ):
        g = program.add_global("g", 64)
        program.start()
        with pytest.raises(TraceError, match="bytes"):
            getattr(program, emit)(g, offset, size=size)
        assert sink.events == []

    @pytest.mark.parametrize("size", [0, -4])
    @pytest.mark.parametrize("emit", ["load_local", "store_local"])
    def test_local_access_smaller_than_a_byte_rejected(
        self, program, sink, emit, size
    ):
        program.start()
        program.push_frame(64)
        with pytest.raises(TraceError, match="bytes"):
            getattr(program, emit)(8, size=size)
        assert sink.events == []


class TestStack:
    def test_local_access_requires_frame(self, program):
        program.start()
        with pytest.raises(TraceError):
            program.load_local(0)

    def test_frame_offsets_accumulate(self, program, sink):
        program.start()
        program.push_frame(64)
        program.push_frame(32)
        program.store_local(8)
        event = sink.events[-1]
        assert event.obj_id == 0
        assert event.offset == 64 + 8
        assert event.is_store is True and event.category is Category.STACK

    def test_pop_without_frame_rejected(self, program):
        program.start()
        with pytest.raises(TraceError):
            program.pop_frame()

    def test_frame_overflow_rejected(self, program):
        program.start()
        program.push_frame(16)
        with pytest.raises(TraceError):
            program.load_local(16)

    def test_function_context_manager_balances(self, program):
        program.start()
        with program.function(0x10, frame_bytes=32):
            program.store_local(0)
            assert program.return_addresses == (Program._mix(0x10),)
        assert program.return_addresses == ()

    def test_ret_with_empty_stack_rejected(self, program):
        program.start()
        with pytest.raises(TraceError):
            program.ret()


class TestHeap:
    def test_malloc_captures_return_addresses(self, program, sink):
        program.start()
        program.call(0x100)
        program.call(0x200)
        program.malloc(32)
        alloc = sink.events[-1]
        assert alloc.return_addresses == (
            Program._mix(0x200),
            Program._mix(0x100),
        )

    def test_site_mixing_is_deterministic_and_spread(self):
        assert Program._mix(0x10) == Program._mix(0x10)
        # Structured site ids must not XOR-cancel after mixing.
        degenerate = 0x22110 ^ 0x22100 ^ 0x22000
        mixed = (
            Program._mix(0x22110) ^ Program._mix(0x22100) ^ Program._mix(0x22000)
        )
        assert degenerate == 0x22010  # the raw values do cancel
        assert mixed != Program._mix(0x22010)

    def test_malloc_rejects_non_positive(self, program):
        program.start()
        with pytest.raises(TraceError):
            program.malloc(0)

    def test_free_marks_dead(self, program):
        program.start()
        ref = program.malloc(16)
        program.free(ref)
        with pytest.raises(TraceError):
            program.load(ref, 0)

    def test_double_free_rejected(self, program):
        program.start()
        ref = program.malloc(16)
        program.free(ref)
        with pytest.raises(TraceError):
            program.free(ref)

    def test_free_of_global_rejected(self, program):
        g = program.add_global("g", 8)
        program.start()
        with pytest.raises(TraceError):
            program.free(g)

    def test_realloc_is_malloc_plus_free(self, program, sink):
        program.start()
        ref = program.malloc(16)
        new_ref = program.realloc(ref, 64)
        assert not ref.alive and new_ref.alive
        assert new_ref.size == 64
        kinds = [type(e).__name__ for e in sink.events]
        assert kinds == ["Alloc", "Alloc", "Free"]
