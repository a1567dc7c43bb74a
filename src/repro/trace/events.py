"""Object-level trace events.

The ASPLOS'98 CCDP paper instruments Alpha binaries with ATOM and observes
the *object-level* memory reference stream: every load/store is attributed
to a data object (a global variable, the stack, a heap allocation, or a
constant), and every heap allocation/deallocation is observed together with
the call sites that produced it.  This module defines the exact same
observation vocabulary for our pure-Python substrate.

An *object* is "any region of memory that the program views as a single
contiguous space" (paper, Section 2).  Objects are identified by a small
integer ``obj_id`` that is unique within one program run.  Object id 0 is
reserved for the stack, which the paper profiles and places as one large
contiguous object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Reserved object id for the single stack object (paper, Section 2).
STACK_OBJECT_ID = 0


class Category(enum.IntEnum):
    """The four data-object categories of the paper (Section 2)."""

    STACK = 0
    GLOBAL = 1
    HEAP = 2
    CONST = 3

    @property
    def label(self) -> str:
        """Human-readable label used in the paper's tables."""
        return _CATEGORY_LABELS[self]


_CATEGORY_LABELS = {
    Category.STACK: "Stack",
    Category.GLOBAL: "Global",
    Category.HEAP: "Heap",
    Category.CONST: "Const",
}

#: Fixed order in which the paper's tables report per-category columns.
CATEGORY_ORDER = (Category.STACK, Category.GLOBAL, Category.HEAP, Category.CONST)


@dataclass(frozen=True, slots=True)
class ObjectInfo:
    """Static description of one data object.

    Attributes:
        obj_id: Run-unique integer identity.
        category: Which of the four placement categories the object is in.
        size: Object size in bytes.  For the stack this is the maximum
            stack depth observed (it is refined as the run proceeds).
        symbol: Stable symbolic name.  Globals and constants use their
            declared variable name; heap objects use their XOR allocation
            name rendered in hex; the stack uses ``"stack"``.
        decl_index: Declaration order for globals/constants (drives the
            natural baseline layout); allocation order for heap objects.
        alloc_name: XOR-folded allocation name for heap objects
            (paper, Section 3.1), ``None`` for everything else.
    """

    obj_id: int
    category: Category
    size: int
    symbol: str
    decl_index: int = 0
    alloc_name: int | None = None


class TraceError(Exception):
    """Raised when a workload produces an inconsistent event stream."""
