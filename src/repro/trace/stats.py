"""Workload statistics collection (paper, Table 1 and Table 3 inputs).

Table 1 of the paper reports, per program and input: instructions executed,
the percentage of instructions that are loads and stores, the percentage of
memory references directed at each of the four object categories, and the
number and average size of allocations and deallocations.  Table 3 reports
the distribution of references over object-size buckets.
:class:`WorkloadStats` holds the raw counts those tables are computed
from; :meth:`~repro.trace.buffer.TraceRecorder.stats` fills it from a
recorded trace's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import Category


@dataclass
class WorkloadStats:
    """Aggregate counters for one workload run."""

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
