"""Unit tests for the trace event vocabulary."""

from __future__ import annotations

import pytest

from repro.trace.events import (
    Category,
    CATEGORY_ORDER,
    ObjectInfo,
    STACK_OBJECT_ID,
)
from tests.oracles import Access, Alloc, Free


class TestCategory:
    def test_four_categories(self):
        assert len(Category) == 4

    def test_labels_match_paper_tables(self):
        assert Category.STACK.label == "Stack"
        assert Category.GLOBAL.label == "Global"
        assert Category.HEAP.label == "Heap"
        assert Category.CONST.label == "Const"

    def test_category_order_is_paper_column_order(self):
        assert CATEGORY_ORDER == (
            Category.STACK,
            Category.GLOBAL,
            Category.HEAP,
            Category.CONST,
        )

    def test_stack_object_id_reserved(self):
        assert STACK_OBJECT_ID == 0


class TestObjectInfo:
    def test_fields(self):
        info = ObjectInfo(
            obj_id=3,
            category=Category.GLOBAL,
            size=128,
            symbol="table",
            decl_index=2,
        )
        assert info.obj_id == 3
        assert info.size == 128
        assert info.alloc_name is None

    def test_frozen(self):
        info = ObjectInfo(1, Category.HEAP, 64, "h", alloc_name=0xBEEF)
        with pytest.raises(AttributeError):
            info.size = 99

    def test_heap_object_carries_alloc_name(self):
        info = ObjectInfo(1, Category.HEAP, 64, "h", alloc_name=0xBEEF)
        assert info.alloc_name == 0xBEEF


class TestEventShapes:
    def test_access_event(self):
        event = Access(obj_id=1, offset=8, size=4, is_store=True,
                       category=Category.GLOBAL)
        assert event.is_store
        assert event.offset == 8

    def test_alloc_event_defaults(self):
        info = ObjectInfo(5, Category.HEAP, 32, "h#5")
        event = Alloc(info=info)
        assert event.return_addresses == ()

    def test_free_event(self):
        assert Free(obj_id=9).obj_id == 9
