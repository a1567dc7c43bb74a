"""Cache statistics with per-category, per-object and three-Cs attribution.

The paper evaluates placements by simulating an 8 KB direct-mapped cache
with 32-byte lines and attributing every miss to the data object (and its
category — stack, global, heap, constant) whose reference missed
(Section 5).  Section 2 frames the optimization in terms of the Hill &
Smith three-Cs model, whose split :class:`CacheStats` carries:

* *compulsory* — first-ever reference to the block address;
* *capacity*   — the block would also miss in a fully associative LRU
  cache of the same capacity;
* *conflict*   — the block would have hit fully associatively.

:class:`~repro.cache.batch.BatchCacheSimulator` fills these statistics;
the per-access simulator it must equal is kept in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..trace.events import Category
from ..trace.stats import ObjectCounter


@dataclass
class CacheStats:
    """Hit/miss counters with per-category and per-object attribution.

    ``accesses_by_object`` and ``misses_by_object`` are
    :class:`~repro.trace.stats.ObjectCounter` fields: each may be given
    as :class:`~repro.trace.stats.ObjectColumns` and reads as a dict.
    """

    accesses: int = 0
    misses: int = 0
    accesses_by_category: dict[Category, int] = field(
        default_factory=lambda: {c: 0 for c in Category}
    )
    misses_by_category: dict[Category, int] = field(
        default_factory=lambda: {c: 0 for c in Category}
    )
    accesses_by_object: dict[int, int] = field(default_factory=dict)
    misses_by_object: dict[int, int] = field(default_factory=dict)
    compulsory: int = 0
    capacity: int = 0
    conflict: int = 0
    writebacks: int = 0

    def check_conservation(self) -> None:
        """Assert the additive miss-attribution invariants.

        Raises :class:`~repro.obs.invariants.InvariantError` when any
        per-category/per-object sum disagrees with its total (see
        :mod:`repro.obs.invariants`).
        """
        from ..obs.invariants import check_cache_stats

        check_cache_stats(self)

    @property
    def memory_traffic_blocks(self) -> int:
        """Blocks exchanged with the next level: fills plus writebacks.

        Every miss fills one block; every dirty eviction writes one back
        (write-back, write-allocate policy).
        """
        return self.misses + self.writebacks

    @property
    def miss_rate(self) -> float:
        """Overall miss rate in percent (the paper's ``D-Miss`` column)."""
        return 100.0 * self.misses / self.accesses if self.accesses else 0.0

    def category_miss_rate(self, category: Category) -> float:
        """Misses blamed on ``category`` as a percent of *all* accesses.

        The paper's per-category columns are additive: Stack + Global +
        Heap + Const == D-Miss, so each is normalized by total accesses.
        """
        if not self.accesses:
            return 0.0
        return 100.0 * self.misses_by_category[category] / self.accesses

    def object_miss_rate(self, obj_id: int) -> float:
        """Miss rate of one object's own references, in percent (Figure 3)."""
        accesses = self.accesses_by_object.get(obj_id, 0)
        if not accesses:
            return 0.0
        return 100.0 * self.misses_by_object.get(obj_id, 0) / accesses


# The per-object fields stay dataclass fields (``__init__``, ``==`` and
# ``repr`` go through them) behind descriptors that also hold columns.
CacheStats.accesses_by_object = ObjectCounter("accesses_by_object")
CacheStats.misses_by_object = ObjectCounter("misses_by_object")
