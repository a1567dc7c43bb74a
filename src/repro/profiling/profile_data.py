"""Profile data model: placement entities and the Name profile.

The paper's framework profiles one run and places objects for another, so
placement decisions must be keyed by *names that are stable across runs*
(Section 3.1): globals and constants by their (link-time) identity, the
stack as a single object, and heap allocations by their XOR-folded call
sites.  We call each such stable unit a **placement entity**.  All heap
objects that share an XOR name collapse into one entity; if two of them
were ever live concurrently the entity is *collided* and will be demoted
to unpopular during heap preprocessing (Section 3.4).

The *Name profile* of the paper (Section 3) — object id, reference count,
size, lifetime — lives on the entities themselves.

The TRG lives on the profile in one of two forms: five int64 columns
(:class:`TRGColumns`, what the profiler emits, the artifact store and
the JSON loader read) or a dict keyed by ``((eid, chunk), (eid,
chunk))`` (what callers that edit a TRG assign, such as the per-event
test oracles).  :attr:`Profile.trg` is the dict, built from the columns
the first time it is read; :attr:`Profile.trg_columns`, the
placement index and the Phase 0/4 reductions read the columns, so a
profile that is only stored, loaded and placed never builds the dict.
:func:`edge_columns` and :func:`edge_dict` are the only conversions
between the two forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from ..trace.events import Category
from .trg import EdgeKey

#: Entity id reserved for the stack (mirrors ``STACK_OBJECT_ID``).
STACK_ENTITY_ID = 0


@dataclass
class Entity:
    """One placement entity with its Name-profile record."""

    eid: int
    category: Category
    key: str
    size: int = 0
    refs: int = 0
    first_access: int | None = None
    last_access: int | None = None
    decl_index: int = 0
    heap_name: int | None = None
    alloc_count: int = 0
    collided: bool = False

    @property
    def lifetime(self) -> int:
        """Span of access timestamps covered by the entity."""
        if self.first_access is None or self.last_access is None:
            return 0
        return self.last_access - self.first_access


class TRGColumns(NamedTuple):
    """A TRG as five equal-length int64 columns, one row per edge.

    Row ``i`` is the edge ``((a_eid[i], a_chunk[i]), (b_eid[i],
    b_chunk[i]))`` with weight ``weight[i]``; rows follow edge insertion
    order.
    """

    a_eid: np.ndarray
    a_chunk: np.ndarray
    b_eid: np.ndarray
    b_chunk: np.ndarray
    weight: np.ndarray


def edge_columns(edges: dict[EdgeKey, int]) -> TRGColumns:
    """The columns of an edge dict, in its iteration order."""
    count = len(edges)
    # Flatten the ((eid, chunk), (eid, chunk)) keys with C-level
    # iterators; a Python generator here would dominate.
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(edges)), np.int64, 4 * count
    ).reshape(count, 4)
    weight = np.fromiter(edges.values(), np.int64, count)
    return TRGColumns(*np.ascontiguousarray(ends.T), weight)


def edge_dict(columns: TRGColumns) -> dict[EdgeKey, int]:
    """The edge dict of TRG columns, iterating in row order."""
    a_eid, a_chunk, b_eid, b_chunk, weight = (column.tolist() for column in columns)
    return dict(zip(zip(zip(a_eid, a_chunk), zip(b_eid, b_chunk)), weight))


@dataclass
class Profile:
    """Complete output of one profiling run.

    Attributes:
        entities: Every placement entity, by entity id.
        trg: TRGplace edge weights between (entity, chunk) pairs; the key
            is a canonically ordered pair of (eid, chunk) tuples and the
            value estimates the cache misses that would arise were the two
            chunks mapped to the same cache line (paper, Section 3.2).
            A profile built from :attr:`trg_columns` builds this dict
            on first read; from then on the dict is the TRG, so callers
            may edit it in place (then call :meth:`invalidate_derived`).
        chunk_size: Placement granularity in bytes (paper: 256).
        queue_threshold: Byte bound on the TRG recency queue
            (paper: 2x the cache size).
        alloc_adjacency: Counts of consecutive-allocation pairs of heap
            names, used to detect allocation locality in Phase 1.
        total_accesses: Number of memory references profiled.
    """

    entities: dict[int, Entity] = field(default_factory=dict)
    trg: dict[EdgeKey, int] = field(default_factory=dict)
    chunk_size: int = 256
    queue_threshold: int = 16384
    alloc_adjacency: dict[tuple[int, int], int] = field(default_factory=dict)
    total_accesses: int = 0
    name_depth: int = 4

    def entity_by_key(self, key: str) -> Entity | None:
        """Look an entity up by its stable cross-run key."""
        for entity in self.entities.values():
            if entity.key == key:
                return entity
        return None

    def _get_trg(self) -> dict[EdgeKey, int]:
        if self._trg_edges is None:
            self._trg_edges = edge_dict(self._trg_columns)
            # The dict is the TRG from here on, so in-place edits by
            # callers can never leave the columns stale.
            self._trg_columns = None
        return self._trg_edges

    def _set_trg(self, edges: dict[EdgeKey, int]) -> None:
        self._trg_edges = edges
        self._trg_columns = None
        self.invalidate_derived()

    @property
    def trg_columns(self) -> TRGColumns:
        """The TRG edges as :class:`TRGColumns`, in edge insertion order.

        The columns as assigned while :attr:`trg` has not been read;
        afterwards (or for a profile assigned a dict) they are derived
        from the dict on each access.
        """
        columns = self._trg_columns
        if columns is None:
            return edge_columns(self._trg_edges)
        return columns

    @trg_columns.setter
    def trg_columns(self, columns: TRGColumns) -> None:
        self._trg_columns = columns
        self._trg_edges = None
        self.invalidate_derived()

    def popularity(self) -> dict[int, int]:
        """Per-entity popularity: the sum of incident TRGplace edge weights.

        This is Phase 0's metric: "The popularity of an object is the sum
        of the weights of the TRGplace edges that reference it."  Keys
        are every entity in entity order, then any edge endpoint the
        profile does not declare, in order of first appearance.

        Memoized with :meth:`entity_affinity` (one pass over
        :attr:`trg_columns` computes both), so repeated placements over
        one profile (e.g. an experiment sweep across cache geometries)
        pay the reduction once.
        """
        if self._popularity is None:
            self._reduce_trg()
        return self._popularity

    def entity_affinity(self) -> dict[tuple[int, int], int]:
        """Entity-level affinity (:func:`~repro.profiling.trg.entity_affinity`).

        Keys are the canonical ``(lo, hi)`` entity pairs of the edges
        between two different entities, in order of first appearance;
        memoized with :meth:`popularity`.
        """
        if self._affinity is None:
            self._reduce_trg()
        return self._affinity

    def _reduce_trg(self) -> None:
        """Popularity and entity affinity from the TRG columns.

        Reproduces the dict loops exactly, key order included.  Endpoint
        ids are rank-compressed together with the declared entity ids,
        so the reductions run over dense ranks; each edge's endpoints are
        interleaved (``a`` before ``b``) to give first appearances in the
        loops' visiting order.
        """
        a_eid, _a_chunk, b_eid, _b_chunk, weight = self.trg_columns
        declared = np.fromiter(self.entities, np.int64, len(self.entities))
        cross = a_eid != b_eid
        ends = np.stack((a_eid, b_eid), axis=1).ravel()
        eids, first, rank = np.unique(
            np.concatenate((declared, ends)), return_index=True, return_inverse=True
        )
        rank = rank[len(declared) :]
        # A self-loop adds its weight to its entity once.
        added = np.stack((weight, np.where(cross, weight, 0)), axis=1).ravel()
        totals = np.zeros(len(eids), dtype=np.int64)
        np.add.at(totals, rank, added)
        order = np.argsort(first)
        self._popularity = dict(zip(eids[order].tolist(), totals[order].tolist()))

        a_rank, b_rank = rank[0::2][cross], rank[1::2][cross]
        lo, hi = np.minimum(a_rank, b_rank), np.maximum(a_rank, b_rank)
        _pairs, pair_first, pair_of = np.unique(
            lo * len(eids) + hi, return_index=True, return_inverse=True
        )
        sums = np.zeros(len(pair_first), dtype=np.int64)
        np.add.at(sums, pair_of, weight[cross])
        order = np.argsort(pair_first)
        rows = pair_first[order]
        self._affinity = dict(
            zip(
                zip(eids[lo[rows]].tolist(), eids[hi[rows]].tolist()),
                sums[order].tolist(),
            )
        )

    def invalidate_derived(self) -> None:
        """Drop memoized popularity, affinity and placement index.

        Assigning :attr:`trg` or :attr:`trg_columns` calls this; call it
        after editing :attr:`trg` in place.
        """
        self._popularity = None
        self._affinity = None
        self._trg_index = None

    def entities_of(self, category: Category) -> list[Entity]:
        """All entities of one category, in entity-id order."""
        return [
            e for _eid, e in sorted(self.entities.items()) if e.category is category
        ]

    def edge_weight(
        self, a: tuple[int, int], b: tuple[int, int]
    ) -> int:
        """TRGplace weight between two (entity, chunk) pairs (0 if absent)."""
        key = (a, b) if a <= b else (b, a)
        return self.trg.get(key, 0)


# ``trg`` stays a dataclass field (``__init__``, ``==`` and ``repr`` go
# through it); the property behind it keeps a profile built from columns
# in that form until the dict is read.
Profile.trg = property(
    Profile._get_trg, Profile._set_trg, doc="TRGplace edge weights as a dict."
)
