"""The ``CACHE`` structure and the TRG conflict-cost metric.

The placement algorithm evaluates candidate placements with a software
model of the target cache: "a CACHE structure, which stores for each cache
block (object ID, chunk NUM) pairs indicating that the chunk NUM of object
ID is mapped to this location in the cache" (paper, Section 3.3).  The
conflict cost of co-locating two chunks in one cache block is the TRGplace
edge weight between them.

``conflict_cost_scan`` implements the inner loop of Figure 2: trying every
cache-line start location for a moving group of chunks against a fixed
group, returning the location of minimum predicted conflict.  Rather than
literally walking 256 x 256 line pairs, it iterates the TRG edges that
cross from the moving set to the fixed set.  A chunk's line span is a
*contiguous* circular interval, so the number of (fixed line, moving
line) collisions at each candidate start is the convolution of two
interval indicators — a trapezoid over the start offset.  Each edge
therefore contributes just four signed deltas to a second-difference
array; two cumulative sums and a circular fold then yield the whole cost
vector exactly, in O(edges + lines) per scan instead of
O(edges x span^2).

:class:`TRGIndex` compiles a profile's TRG columns
(:attr:`~repro.profiling.profile_data.Profile.trg_columns`) into CSR
arrays, so placing a profile never builds its edge dict.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..cache.config import CacheConfig
from ..profiling.profile_data import Profile, TRGColumns, edge_columns

PairKey = tuple[int, int]
EdgeKey = tuple[PairKey, PairKey]

#: Bit width of the chunk field in a packed (entity, chunk) pair key.
CHUNK_BITS = 32


def chunk_line_span(
    cache_offset: int,
    size: int,
    chunk: int,
    chunk_size: int,
    config: CacheConfig,
) -> tuple[int, ...]:
    """Cache lines covered by one chunk of an entity.

    Args:
        cache_offset: Byte offset of the entity's start within the cache
            image (need not be reduced modulo the cache size).
        size: Entity size in bytes.
        chunk: Chunk index within the entity.
        chunk_size: Chunk granularity in bytes.
        config: Target cache geometry.

    Returns:
        The (wrapped) cache *set* indices the chunk occupies.  For a
        direct-mapped cache these are the cache lines; for associative
        geometries the placement algorithm "works the same by placing
        chunks into cache sets instead of cache lines" (paper,
        Section 5.2).
    """
    start = cache_offset + chunk * chunk_size
    end_byte = cache_offset + min(size, (chunk + 1) * chunk_size) - 1
    if end_byte < start:
        end_byte = start
    first_line = start // config.line_size
    last_line = end_byte // config.line_size
    num_sets = config.num_sets
    return tuple((line % num_sets) for line in range(first_line, last_line + 1))


class CacheImage:
    """Chunk-to-line occupancy map for a group of placed entities.

    ``pairs`` maps each (entity, chunk) pair to the tuple of cache lines
    it occupies under the group's current offsets.  Only *active* chunks —
    those that appear in the TRG — are tracked: chunks with no temporal
    relationships can never contribute conflict cost.
    """

    def __init__(self, config: CacheConfig, chunk_size: int):
        self.config = config
        self.chunk_size = chunk_size
        self.pairs: dict[PairKey, tuple[int, ...]] = {}

    def add_entity(
        self,
        eid: int,
        size: int,
        cache_offset: int,
        active_chunks: tuple[int, ...],
    ) -> None:
        """Map ``active_chunks`` of entity ``eid`` at ``cache_offset``."""
        for chunk in active_chunks:
            self.pairs[(eid, chunk)] = chunk_line_span(
                cache_offset, size, chunk, self.chunk_size, self.config
            )

    def lines_in_use(self) -> set[int]:
        """All cache lines with at least one mapped chunk."""
        used: set[int] = set()
        for span in self.pairs.values():
            used.update(span)
        return used


def build_adjacency(
    profile: Profile,
) -> dict[PairKey, list[tuple[PairKey, int]]]:
    """Index TRGplace edges by endpoint for fast cost evaluation."""
    adjacency: dict[PairKey, list[tuple[PairKey, int]]] = {}
    for (pair_a, pair_b), weight in profile.trg.items():
        adjacency.setdefault(pair_a, []).append((pair_b, weight))
        if pair_b != pair_a:
            adjacency.setdefault(pair_b, []).append((pair_a, weight))
    return adjacency


def active_chunks_by_entity(profile: Profile) -> dict[int, tuple[int, ...]]:
    """Chunks of each entity that participate in at least one TRG edge.

    Every entity is guaranteed at least chunk 0 so that entities with no
    edges still occupy their starting line in cost evaluations.
    """
    chunks: dict[int, set[int]] = {eid: {0} for eid in profile.entities}
    for (pair_a, pair_b) in profile.trg:
        chunks.setdefault(pair_a[0], {0}).add(pair_a[1])
        chunks.setdefault(pair_b[0], {0}).add(pair_b[1])
    return {eid: tuple(sorted(cs)) for eid, cs in chunks.items()}


class TRGIndex:
    """CSR adjacency over TRGplace edges with a dense pair universe.

    The pair universe covers every (entity, chunk) pair that participates
    in at least one TRG edge plus chunk 0 of every entity — exactly the
    pairs :func:`active_chunks_by_entity` would report.  Pairs are sorted
    by packed ``(eid << 32) | chunk`` key, so each entity's pairs occupy
    one contiguous index range and its active chunks come out ascending.

    The edge table is the same graph :func:`build_adjacency` builds as a
    dict of lists — each undirected edge appears in both endpoints' rows,
    self-loops in one — but laid out as three flat arrays (``indptr``,
    ``nbr``, ``wt``), so one placement builds it once with vectorized
    passes and every conflict scan gathers edge slices without touching a
    Python-level dict.  The profile constructor compiles the profile's
    :attr:`~repro.profiling.profile_data.Profile.trg_columns`, and its
    :attr:`edges` reads the profile's dict only when called.

    Indexes built with :meth:`from_edges` own their edge dict and support
    :meth:`apply_edge_deltas` — the adaptive engine's incremental
    add/retire path, which updates ``wt`` slots in place while the edge
    set is stable and falls back to an insertion-order-preserving rebuild
    only on structural change.
    """

    def __init__(self, profile: Profile):
        # None while the edges are the profile's (copied on first change).
        self._edges: dict[EdgeKey, int] | None = None
        self._profile: Profile | None = profile
        self._entity_ids = np.fromiter(
            profile.entities, dtype=np.int64, count=len(profile.entities)
        )
        self.inplace_updates = 0
        self.rebuilds = 0
        self._build(profile.trg_columns)

    @classmethod
    def from_edges(
        cls, edges: dict[EdgeKey, int], entity_ids: Iterable[int]
    ) -> "TRGIndex":
        """Build an index that owns (a copy of) a raw TRG edge dict.

        Unlike the profile constructor, the resulting index may be
        mutated through :meth:`apply_edge_deltas`.  ``entity_ids`` should
        cover every entity the index will ever carry edges for, so that
        chunk 0 of each is always part of the pair universe (matching
        :func:`active_chunks_by_entity`).
        """
        index = cls.__new__(cls)
        index._edges = dict(edges)
        index._profile = None
        index._entity_ids = np.fromiter(entity_ids, dtype=np.int64)
        index.inplace_updates = 0
        index.rebuilds = 0
        index._build(edge_columns(index._edges))
        return index

    def _build(self, columns: TRGColumns) -> None:
        a_eid, a_chunk, b_eid, b_chunk, weights = columns
        num_edges = len(weights)
        entity_ids = self._entity_ids
        num_entities = len(entity_ids)
        packed_a = (a_eid << CHUNK_BITS) | a_chunk
        packed_b = (b_eid << CHUNK_BITS) | b_chunk
        universe, inverse = np.unique(
            np.concatenate((entity_ids << CHUNK_BITS, packed_a, packed_b)),
            return_inverse=True,
        )
        self.pair_eid = universe >> CHUNK_BITS
        self.pair_chunk = universe & ((1 << CHUNK_BITS) - 1)
        self.num_pairs = len(universe)

        # Entity id -> contiguous [lo, hi) pair-index range.
        uniq_eids, starts, counts = np.unique(
            self.pair_eid, return_index=True, return_counts=True
        )
        self._entity_range: dict[int, tuple[int, int]] = {
            int(eid): (int(lo), int(lo + n))
            for eid, lo, n in zip(uniq_eids, starts, counts)
        }

        idx_a = inverse[num_entities : num_entities + num_edges]
        idx_b = inverse[num_entities + num_edges :]
        loop = idx_a == idx_b
        src = np.concatenate((idx_a, idx_b[~loop]))
        dst = np.concatenate((idx_b, idx_a[~loop]))
        wt = np.concatenate((weights, weights[~loop]))
        order = np.argsort(src, kind="stable")
        self.nbr = dst[order]
        self.wt = wt[order]
        self.indptr = np.zeros(self.num_pairs + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(src, minlength=self.num_pairs), out=self.indptr[1:]
        )
        # Slot maps for in-place weight updates: the i-th inserted edge
        # owns ``wt`` slot ``_slot_fwd[i]`` and, unless it is a
        # self-loop, the reverse-direction slot ``_slot_rev[i]``.
        positions = np.empty(len(order), dtype=np.int64)
        positions[order] = np.arange(len(order), dtype=np.int64)
        self._slot_fwd = positions[:num_edges]
        slot_rev = np.full(num_edges, -1, dtype=np.int64)
        slot_rev[~loop] = positions[num_edges:]
        self._slot_rev = slot_rev
        self._edge_pos: dict[EdgeKey, int] | None = None

    @property
    def edges(self) -> dict[EdgeKey, int]:
        """The backing TRG edge dict (treat as read-only).

        For an index built from a profile this is the profile's
        :attr:`~repro.profiling.profile_data.Profile.trg`, read (and so
        built, if the profile holds columns) on this call.
        """
        if self._edges is None:
            return self._profile.trg
        return self._edges

    def total_weight(self) -> int:
        """Sum of all edge weights, each undirected edge counted once."""
        return int(self.wt[self._slot_fwd].sum())

    def apply_edge_deltas(self, deltas: dict[EdgeKey, int]) -> None:
        """Add/retire edge weight incrementally (sliding-window updates).

        Each delta is added to the edge's current weight (missing edges
        count as zero); edges whose weight drops to or below zero are
        removed.  While every delta keeps an existing edge positive —
        the common case once a sliding window has warmed up — the ``wt``
        array is patched in place through the slot maps with no CSR
        rebuild.  Structural changes (new edges, retired edges) mutate
        the backing dict preserving insertion order — new keys append,
        removed keys drop — and rebuild, so the result is always
        bit-identical to a from-scratch build on the same dict.
        """
        if not deltas:
            return
        if self._edges is None:
            self._edges = dict(self._profile.trg)
            self._profile = None
        edges = self._edges
        structural = False
        for key, delta in deltas.items():
            old = edges.get(key)
            if old is None or old + delta <= 0:
                structural = True
                break
        if not structural:
            positions = self._edge_pos
            if positions is None:
                positions = self._edge_pos = {
                    key: i for i, key in enumerate(edges)
                }
            wt = self.wt
            slot_fwd = self._slot_fwd
            slot_rev = self._slot_rev
            for key, delta in deltas.items():
                if delta == 0:
                    continue
                new_weight = edges[key] + delta
                edges[key] = new_weight
                i = positions[key]
                wt[slot_fwd[i]] = new_weight
                rev = slot_rev[i]
                if rev >= 0:
                    wt[rev] = new_weight
                self.inplace_updates += 1
            return
        for key, delta in deltas.items():
            new_weight = edges.get(key, 0) + delta
            if new_weight > 0:
                edges[key] = new_weight
            elif key in edges:
                del edges[key]
        self.rebuilds += 1
        self._build(edge_columns(edges))

    @classmethod
    def for_profile(cls, profile: Profile) -> "TRGIndex":
        """The profile's index, built once and memoized on the profile.

        The index is a pure function of the (immutable-after-profiling)
        TRG and entity set — it does not depend on cache geometry — so
        experiment sweeps that place one profile under several
        geometries share a single build.  Assigning the profile's TRG
        drops it (see
        :meth:`~repro.profiling.profile_data.Profile.invalidate_derived`).
        """
        index = getattr(profile, "_trg_index", None)
        if index is None:
            index = cls(profile)
            profile._trg_index = index
        return index

    def pair_range(self, eid: int) -> tuple[int, int]:
        """The ``[lo, hi)`` pair-index range of one entity."""
        return self._entity_range[eid]

    def pair_ids(self, eid: int) -> np.ndarray:
        """Pair indices of one entity's active chunks."""
        lo, hi = self._entity_range[eid]
        return np.arange(lo, hi, dtype=np.int64)

    def active_chunks(self, eid: int) -> tuple[int, ...]:
        """Active chunks of one entity, ascending (chunk 0 always present)."""
        lo, hi = self._entity_range[eid]
        return tuple(int(c) for c in self.pair_chunk[lo:hi])


def conflict_cost_scan(
    fixed: dict[PairKey, tuple[int, ...]],
    moving: dict[PairKey, tuple[int, ...]],
    adjacency: dict[PairKey, list[tuple[PairKey, int]]],
    num_lines: int,
    preferred_start: int = 0,
) -> tuple[int, int]:
    """Find the min-conflict start line for ``moving`` against ``fixed``.

    Implements the Figure 2 scan: for every start location ``i`` (in cache
    lines), the cost is the sum of TRGplace weights between every fixed
    chunk and every moving chunk that would share a cache line.  Ties are
    broken toward ``preferred_start`` in scan order, matching the paper's
    ``cost < best_cost`` strict-improvement loop.

    Returns:
        ``(best_start_line, best_cost)``.
    """
    # Two chunks share a line when the moving group starts at
    # (fixed_line - moving_line) mod num_lines.  With contiguous spans of
    # lengths sf and sm starting at F and M, the collision count per
    # start offset is the trapezoid conv(1_sf, 1_sm) beginning at
    # F - (M + sm - 1): its second difference is +1, -1, -1, +1 at
    # offsets 0, sf, sm, sf + sm, so each edge costs four delta updates
    # instead of sf * sm scatter increments.
    interval_cache: dict[tuple[int, ...], bool] = {}

    def is_interval(span: tuple[int, ...]) -> bool:
        """Whether ``span`` lists consecutive lines (mod ``num_lines``)."""
        cached = interval_cache.get(span)
        if cached is None:
            start = span[0]
            cached = all(
                line % num_lines == (start + i) % num_lines
                for i, line in enumerate(span)
            )
            interval_cache[span] = cached
        return cached

    width = 2
    deltas: list[tuple[int, int, int, int]] = []
    for moving_pair, moving_span in moving.items():
        if not moving_span:
            continue
        sm = len(moving_span)
        base = moving_span[0] + sm - 1
        moving_ok = is_interval(moving_span)
        for other_pair, weight in adjacency.get(moving_pair, ()):
            fixed_span = fixed.get(other_pair)
            if not fixed_span:
                continue
            if moving_ok and is_interval(fixed_span):
                sf = len(fixed_span)
                deltas.append(
                    ((fixed_span[0] - base) % num_lines, sf, sm, weight)
                )
                if sf + sm > width:
                    width = sf + sm
            else:
                # Arbitrary span tuples (not produced by
                # ``chunk_line_span``, but allowed by the API): fall back
                # to one width-1 trapezoid per colliding line pair.
                for moving_line in moving_span:
                    for fixed_line in fixed_span:
                        deltas.append(
                            (
                                (fixed_line - moving_line) % num_lines,
                                1,
                                1,
                                weight,
                            )
                        )
    pref = preferred_start % num_lines
    if not deltas:
        return pref, 0
    starts, sfs, sms, weights = (
        np.array(column, dtype=np.int64) for column in zip(*deltas)
    )
    # Scatter the second differences into a linear buffer long enough for
    # every trapezoid (start < num_lines, extent <= width), double-cumsum
    # to materialize the trapezoids, then fold the buffer back onto the
    # circle of start positions.
    buffer_rows = (num_lines + width) // num_lines + 1
    second = np.zeros(buffer_rows * num_lines, dtype=np.int64)
    np.add.at(second, starts, weights)
    np.add.at(second, starts + sfs, -weights)
    np.add.at(second, starts + sms, -weights)
    np.add.at(second, starts + sfs + sms, weights)
    cost = (
        np.cumsum(np.cumsum(second))
        .reshape(buffer_rows, num_lines)
        .sum(axis=0)
    )
    # First minimum in (preferred_start, preferred_start + 1, ...) scan
    # order, matching the strict-improvement loop of Figure 2.
    rotated = np.concatenate((cost[pref:], cost[:pref]))
    step = int(np.argmin(rotated))
    return (pref + step) % num_lines, int(rotated[step])
