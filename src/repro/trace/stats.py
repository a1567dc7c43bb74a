"""Workload statistics collection (paper, Table 1 and Table 3 inputs).

Table 1 of the paper reports, per program and input: instructions executed,
the percentage of instructions that are loads and stores, the percentage of
memory references directed at each of the four object categories, and the
number and average size of allocations and deallocations.  Table 3 reports
the distribution of references over object-size buckets.
:class:`WorkloadStats` holds the raw counts those tables are computed
from; :meth:`~repro.trace.buffer.TraceRecorder.stats` fills it from a
recorded trace's columns.

Per-object counters (here and in :class:`~repro.cache.simulator.CacheStats`)
live in one of two forms: an :class:`ObjectColumns` pair of int columns
(what the kernels emit and the artifact store reads and writes) or a dict
keyed by object id (what Table 3, Figure 3 and callers that edit a counter
use).  Each such field is an :class:`ObjectCounter`: reading it returns
the dict, built from the columns on first read; :func:`counter_columns`
reads the columns without building it.  :func:`object_columns` and
:func:`object_dict` are the only conversions between the two forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .events import Category

#: ``Category`` members indexed by value, for decoding a category column.
_CATEGORIES = tuple(Category)


class ObjectColumns(NamedTuple):
    """A per-object counter as two equal-length int columns.

    Row ``i`` is the entry ``ids[i] -> values[i]``; rows follow the
    dict's insertion order.
    """

    ids: np.ndarray
    values: np.ndarray


def object_columns(counts: dict) -> ObjectColumns:
    """The columns of a per-object dict, in its iteration order."""
    return ObjectColumns(
        np.fromiter(counts.keys(), np.int64, len(counts)),
        np.fromiter(counts.values(), np.int64, len(counts)),
    )


def object_dict(columns: ObjectColumns, convert=None) -> dict:
    """The per-object dict of ``columns``, iterating in row order.

    ``convert`` maps each value (a category column's ints to ``Category``).
    """
    values = columns.values.tolist()
    if convert is not None:
        values = map(convert, values)
    return dict(zip(columns.ids.tolist(), values))


class ObjectCounter:
    """A per-object counter field that holds a dict or :class:`ObjectColumns`.

    Assigning columns keeps them; the first read builds the dict from
    them, in row order, and from then on the dict is the counter, so a
    caller's in-place edits never leave stale columns behind.
    """

    def __init__(self, name: str, convert=None):
        self.name = name
        self.convert = convert

    def __get__(self, stats, owner=None):
        if stats is None:
            return self
        held = stats.__dict__[self.name]
        if isinstance(held, ObjectColumns):
            held = stats.__dict__[self.name] = object_dict(held, self.convert)
        return held

    def __set__(self, stats, counts) -> None:
        stats.__dict__[self.name] = counts


def counter_columns(stats, name: str) -> ObjectColumns:
    """The counter field ``name`` of ``stats`` as columns, building no dict.

    The columns as assigned while the field is unread; afterwards (or
    for a field assigned a dict) they are derived from the dict.
    """
    held = stats.__dict__[name]
    return held if isinstance(held, ObjectColumns) else object_columns(held)


@dataclass
class WorkloadStats:
    """Aggregate counters for one workload run.

    ``refs_by_object``, ``object_sizes`` and ``object_categories`` are
    :class:`ObjectCounter` fields: each may be given as
    :class:`ObjectColumns` and reads as a dict.
    """

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    refs_by_category: dict[Category, int] = field(
        default_factory=lambda: {c: 0 for c in Category}
    )
    alloc_count: int = 0
    alloc_bytes: int = 0
    free_count: int = 0
    free_bytes: int = 0
    refs_by_object: dict[int, int] = field(default_factory=dict)
    object_sizes: dict[int, int] = field(default_factory=dict)
    object_categories: dict[int, Category] = field(default_factory=dict)
    max_stack_depth: int = 0

    @property
    def memory_refs(self) -> int:
        """Total loads + stores."""
        return self.loads + self.stores

    @property
    def pct_loads(self) -> float:
        """Percent of executed instructions that are loads (Table 1)."""
        return 100.0 * self.loads / self.instructions if self.instructions else 0.0

    @property
    def pct_stores(self) -> float:
        """Percent of executed instructions that are stores (Table 1)."""
        return 100.0 * self.stores / self.instructions if self.instructions else 0.0

    def pct_refs(self, category: Category) -> float:
        """Percent of memory references directed at ``category`` (Table 1)."""
        total = self.memory_refs
        if not total:
            return 0.0
        return 100.0 * self.refs_by_category[category] / total

    @property
    def avg_alloc_size(self) -> float:
        """Average ``malloc`` request size in bytes (Table 1)."""
        return self.alloc_bytes / self.alloc_count if self.alloc_count else 0.0

    @property
    def avg_free_size(self) -> float:
        """Average ``free``d object size in bytes (Table 1)."""
        return self.free_bytes / self.free_count if self.free_count else 0.0


# The per-object fields stay dataclass fields (``__init__``, ``==`` and
# ``repr`` go through them) behind descriptors that also hold columns.
WorkloadStats.refs_by_object = ObjectCounter("refs_by_object")
WorkloadStats.object_sizes = ObjectCounter("object_sizes")
WorkloadStats.object_categories = ObjectCounter(
    "object_categories", _CATEGORIES.__getitem__
)


#: Size-bucket upper bounds used by Table 3 of the paper, in bytes.
SIZE_BUCKET_BOUNDS = (8, 128, 1024, 4096, 8192, 32768)

#: Human-readable labels for the Table 3 buckets, in order.
SIZE_BUCKET_LABELS = (
    "<=8",
    "8-128",
    "128-1024",
    "1024-4096",
    "4096-8192",
    "8192-32768",
    ">32768",
)


def size_bucket(size: int) -> int:
    """Return the Table 3 bucket index (0-6) for an object of ``size`` bytes."""
    for index, bound in enumerate(SIZE_BUCKET_BOUNDS):
        if size <= bound:
            return index
    return len(SIZE_BUCKET_BOUNDS)


@dataclass
class SizeBucketRow:
    """One program's Table 3 row: per-bucket object and reference shares."""

    static_objects: int
    objects_per_bucket: list[int]
    pct_refs_per_bucket: list[float]

    def avg_pct_per_object(self, bucket: int) -> float:
        """Average percent of all references per object in ``bucket``."""
        count = self.objects_per_bucket[bucket]
        if not count:
            return 0.0
        return self.pct_refs_per_bucket[bucket] / count


def size_breakdown(stats: WorkloadStats) -> SizeBucketRow:
    """Compute the Table 3 row from collected workload statistics.

    Follows the paper's accounting: only *referenced* global and heap
    objects are counted (Table 3 describes "static objects referenced
    during execution"; stack and constants are excluded because the table
    characterizes the data objects the placement algorithm can move or
    bin).
    """
    buckets = len(SIZE_BUCKET_BOUNDS) + 1
    objects = [0] * buckets
    refs = [0] * buckets
    total_refs = 0
    for obj_id, count in stats.refs_by_object.items():
        category = stats.object_categories.get(obj_id)
        if category not in (Category.GLOBAL, Category.HEAP):
            continue
        bucket = size_bucket(stats.object_sizes.get(obj_id, 0))
        objects[bucket] += 1
        refs[bucket] += count
        total_refs += count
    pct = [100.0 * r / total_refs if total_refs else 0.0 for r in refs]
    return SizeBucketRow(
        static_objects=sum(objects),
        objects_per_bucket=objects,
        pct_refs_per_bucket=pct,
    )
