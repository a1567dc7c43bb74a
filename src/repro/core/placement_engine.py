"""Array-backed placement engine: vectorized Figure 2 conflict scans.

The scalar placement path (:class:`~repro.core.compound.CompoundMerger` +
:func:`~repro.core.cache_struct.conflict_cost_scan`) rebuilds each
compound node's (entity, chunk) -> line-span map from dicts on every
merge and walks the TRG edge lists in Python.  This module keeps the
same state as flat numpy arrays over the :class:`~repro.core.\
cache_struct.TRGIndex` pair universe and turns every conflict scan into
gathers plus one scatter/double-cumsum over a reused buffer:

* ``start_line[p]`` / ``span_len[p]`` — the circular line interval chunk
  ``p`` occupies under its entity's current cache offset.  Spans produced
  by :func:`~repro.core.cache_struct.chunk_line_span` are always
  contiguous circular intervals, and every placement shift is a whole
  number of cache lines, so a merge updates spans by a constant rotation
  of ``start_line`` — span lengths never change after Phase 6 entry.
* ``owner[p]`` — which compound node currently holds the pair, or the
  sentinels :data:`FIXED` (the Phase 2 ``Stack_Const`` image) /
  :data:`UNPLACED` (unpopular or non-placeable entities).  A scan masks
  gathered neighbours by owner, so "fixed = node1 + Stack_Const" is one
  vectorized comparison instead of a rebuilt dict union.

Merging node2 into node1 only gathers the CSR rows of node2's pairs —
O(deg(node2)) — because every edge that matters to the scan is incident
to the moving side.  The cost vector is the exact integer trapezoid sum
of the scalar path, so placements are bit-identical (asserted across all
nine workloads by ``tests/test_placement_parity.py``).

With a non-trivial :class:`~repro.core.cost_model.ConflictCostModel`
the scan generalizes to set-index collisions under associativity: the
per-edge trapezoid becomes a 2D rectangle over (fixed set, moving set)
coordinates, an occupancy gate zeroes every cell where at most ``ways``
popular chunks contend, and the per-start cost vector is the
anti-diagonal fold of the gated grid.  At ``ways == 1`` the gate is
always open for overlapping spans, so the gated cost equals the classic
trapezoid cost exactly (``tests/test_assoc_cost.py`` pins both that
identity and a brute-force reference on small grids).
"""

from __future__ import annotations

import numpy as np

from ..cache.config import CacheConfig
from ..obs import telemetry as obs
from .cache_struct import TRGIndex
from .compound import CompoundNode
from .cost_model import GATED_SCAN_MAX_SETS, ConflictCostModel

#: ``owner`` sentinel for pairs fixed by Phase 2 (stack + constants).
FIXED = -2
#: ``owner`` sentinel for pairs that belong to no compound node.
UNPLACED = -1


class ArrayPlacementEngine:
    """Pair-span state over a :class:`TRGIndex` with vectorized scans.

    One engine instance lives for a whole placement run: Phase 2 fixes
    the constant and stack spans, Phase 6 registers the compound nodes
    and drives the merge loop through :meth:`scan` / :meth:`shift`.

    Args:
        index: CSR adjacency over the profile's TRGplace edges.
        config: Target cache geometry.
        chunk_size: TRG chunk granularity in bytes.
        cost_model: Optional :class:`ConflictCostModel`.  ``None`` (or a
            trivial model) keeps the classic direct-mapped trapezoid
            scan; ``ways > 1`` switches :meth:`scan` to the
            occupancy-gated set-collision cost, and ``entity_penalties``
            scales each edge by the larger endpoint penalty.
    """

    def __init__(
        self,
        index: TRGIndex,
        config: CacheConfig,
        chunk_size: int,
        cost_model: ConflictCostModel | None = None,
    ):
        self.index = index
        self.config = config
        self.chunk_size = chunk_size
        self.num_lines = config.num_sets
        n = index.num_pairs
        self.start_line = np.zeros(n, dtype=np.int64)
        self.span_len = np.ones(n, dtype=np.int64)
        self.owner = np.full(n, UNPLACED, dtype=np.int64)
        self.scan_count = 0
        # Reused second-difference scatter buffer; grows monotonically.
        self._second = np.zeros(4 * self.num_lines, dtype=np.int64)
        self.cost_model = cost_model or ConflictCostModel()
        self._pair_penalty: np.ndarray | None = None
        if self.cost_model.entity_penalties:
            penalty = np.ones(max(int(index.pair_eid.max()) + 1, 1), dtype=np.int64)
            for eid, value in self.cost_model.entity_penalties.items():
                if 0 <= eid < penalty.size:
                    penalty[eid] = int(value)
            self._pair_penalty = penalty[index.pair_eid]
        self._gated = self.cost_model.ways > 1
        if self._gated and self.num_lines > GATED_SCAN_MAX_SETS:
            # The (2S)^2 grid would dominate the scan; degrade to the
            # classic ungated cost rather than blowing up memory.
            self._gated = False
            obs.count("place.assoc_scan_fallbacks")
        # Lazy gated-scan buffers: the (2S)^2 rectangle grid and the
        # (t, s) -> u = (t - s) mod S anti-diagonal gather index.
        self._grid: np.ndarray | None = None
        self._diag_u: np.ndarray | None = None

    # -- span bookkeeping --------------------------------------------------

    def _line_spans(self, cache_offset, size, chunks: np.ndarray):
        """Start line and line count of each chunk at its entity's offset.

        Vectorized :func:`~repro.core.cache_struct.chunk_line_span`;
        ``cache_offset`` and ``size`` are scalars or per-chunk arrays.
        """
        start_byte = cache_offset + chunks * self.chunk_size
        end_byte = cache_offset + np.minimum(size, (chunks + 1) * self.chunk_size) - 1
        np.maximum(end_byte, start_byte, out=end_byte)
        first = start_byte // self.config.line_size
        last = end_byte // self.config.line_size
        return first % self.num_lines, last - first + 1

    def set_entity_span(self, eid: int, cache_offset: int, size: int) -> None:
        """(Re)compute the line spans of one entity's active chunks."""
        lo, hi = self.index.pair_range(eid)
        self.start_line[lo:hi], self.span_len[lo:hi] = self._line_spans(
            cache_offset, size, self.index.pair_chunk[lo:hi]
        )

    def fix_placed(self, entity_base: np.ndarray, entity_size: np.ndarray) -> None:
        """Fix every pair whose entity has a live base, in one gather.

        ``entity_base`` and ``entity_size`` are indexed by entity id and
        cover every entity of the index; a base below 0 means the entity
        is not placed.  Each placed entity's pairs get their spans at
        cache offset ``base % cache size`` and the :data:`FIXED` owner,
        as :meth:`set_entity_span` and :meth:`set_owner` would set them
        entity by entity.
        """
        pair_eid = self.index.pair_eid
        base = entity_base[pair_eid]
        pairs = np.flatnonzero(base >= 0)
        self.start_line[pairs], self.span_len[pairs] = self._line_spans(
            base[pairs] % self.config.size,
            entity_size[pair_eid[pairs]],
            self.index.pair_chunk[pairs],
        )
        self.owner[pairs] = FIXED

    def set_owner(self, pair_idx: np.ndarray, owner: int) -> None:
        """Assign ``owner`` to a batch of pair indices."""
        self.owner[pair_idx] = owner

    def shift(self, pair_idx: np.ndarray, shift_lines: int) -> None:
        """Rotate a batch of pair spans by a whole number of cache lines."""
        self.start_line[pair_idx] = (
            self.start_line[pair_idx] + shift_lines
        ) % self.num_lines

    # -- conflict accounting (adaptive drift estimation) -------------------

    def _placed_edges(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """CSR entries whose two endpoints are both placed, or ``None``."""
        index = self.index
        counts = np.diff(index.indptr)
        src = np.repeat(np.arange(index.num_pairs, dtype=np.int64), counts)
        placed = self.owner != UNPLACED
        mask = placed[src] & placed[index.nbr]
        if not mask.any():
            return None
        return src[mask], index.nbr[mask], index.wt[mask]

    def _overlap(self, src: np.ndarray, nbr: np.ndarray) -> np.ndarray:
        """Cache lines shared by each (src, nbr) pair of circular spans."""
        num_lines = self.num_lines
        la = np.minimum(self.span_len[src], num_lines)
        lb = np.minimum(self.span_len[nbr], num_lines)
        d = (self.start_line[nbr] - self.start_line[src]) % num_lines
        head = np.maximum(np.minimum(la, d + lb) - d, 0)
        wrap = np.maximum(np.minimum(la, d + lb - num_lines), 0)
        return head + wrap

    def total_conflict_cost(self) -> int:
        """Predicted conflict cost of the whole current placement state.

        Sums, over every TRG edge whose endpoints are both placed
        (owner != :data:`UNPLACED`), the edge weight times the number of
        cache lines the two chunk spans share — each undirected edge
        counted once.  This is the adaptive engine's cheap
        window-vs-placement drift estimator: one O(edges) vector pass,
        no scan buffers.
        """
        edges = self._placed_edges()
        if edges is None:
            return 0
        src, nbr, wt = edges
        cost = self._overlap(src, nbr) * wt
        loops = src == nbr
        return int(cost.sum() + cost[loops].sum()) // 2

    def pair_conflict_costs(self) -> np.ndarray:
        """Per-pair incident conflict cost under the current state.

        Self-loop edges contribute once to their pair; every other edge
        contributes to both endpoints.  Aggregating by
        :attr:`TRGIndex.pair_eid` yields the per-entity drift hot list
        the delta re-placement path refits.
        """
        costs = np.zeros(self.index.num_pairs, dtype=np.int64)
        edges = self._placed_edges()
        if edges is None:
            return costs
        src, nbr, wt = edges
        np.add.at(costs, src, self._overlap(src, nbr) * wt)
        return costs

    def refit(
        self,
        entities: list[int],
        entity_size: np.ndarray,
    ) -> dict[int, tuple[int, int]]:
        """Delta re-placement: re-scan only ``entities``, keep the rest.

        ``entity_size`` holds each entity's placement size, indexed by
        entity id.  Every placed pair must be marked :data:`FIXED` on
        entry (:meth:`fix_placed`).  The listed (dirty) entities' pairs
        are released to :data:`UNPLACED`, then re-fit in list order with
        a Figure 2 scan against everything else — each entity is
        re-frozen as :data:`FIXED` once placed, so later refits see it.
        The scan prefers the entity's current start line, so a
        conflict-free entity stays exactly where it is; unchanged
        compound placements are reused rather than re-merged from
        scratch.

        Returns:
            Entity id -> ``(new cache offset, scan cost)``.
        """
        index = self.index
        for eid in entities:
            self.set_owner(index.pair_ids(eid), UNPLACED)
        line_size = self.config.line_size
        result: dict[int, tuple[int, int]] = {}
        for eid in entities:
            pairs = index.pair_ids(eid)
            lo, _hi = index.pair_range(eid)
            # The scan expects node-relative spans: recover the entity's
            # current base line, then rebase its pairs to offset 0.
            chunk_lines = (
                int(index.pair_chunk[lo]) * self.chunk_size
            ) // line_size
            preferred = (int(self.start_line[lo]) - chunk_lines) % self.num_lines
            size = int(entity_size[eid])
            self.set_entity_span(eid, 0, size)
            start, cost = self.scan(pairs, None, preferred_start=preferred)
            offset = start * line_size
            self.set_entity_span(eid, offset, size)
            self.set_owner(pairs, FIXED)
            result[eid] = (offset, cost)
        return result

    # -- the Figure 2 scan -------------------------------------------------

    def scan(
        self,
        moving: np.ndarray,
        include_owner: int | None,
        preferred_start: int,
    ) -> tuple[int, int]:
        """Min-conflict start line for the ``moving`` pairs.

        The fixed side is every neighbour owned by :data:`FIXED`, plus
        ``include_owner``'s pairs when given (the anchored node a merge
        scans against).  Exactly reproduces
        :func:`~repro.core.cache_struct.conflict_cost_scan`: same
        integer trapezoid cost vector, same preferred-start scan-order
        tie-breaking.

        Returns:
            ``(best_start_line, best_cost)``.
        """
        self.scan_count += 1
        num_lines = self.num_lines
        pref = preferred_start % num_lines
        indptr = self.index.indptr
        counts = indptr[moving + 1] - indptr[moving]
        total = int(counts.sum())
        if total == 0:
            return pref, 0
        # Multi-range gather of the moving pairs' CSR rows.
        ends = np.cumsum(counts)
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            indptr[moving] - (ends - counts), counts
        )
        nbrs = self.index.nbr[flat]
        nbr_owner = self.owner[nbrs]
        mask = nbr_owner == FIXED
        if include_owner is not None:
            mask |= nbr_owner == include_owner
        if not mask.any():
            return pref, 0
        nbrs = nbrs[mask]
        weights = self.index.wt[flat][mask]
        src = np.repeat(moving, counts)[mask]
        if self._pair_penalty is not None:
            # Two-level mode: an edge costs the *worse* endpoint's
            # conflict-miss penalty (L2 hit vs memory latency).
            weights = weights * np.maximum(
                self._pair_penalty[src], self._pair_penalty[nbrs]
            )
        if self._gated:
            cost = self._gated_cost_vector(moving, src, nbrs, weights, include_owner)
        else:
            cost = self._trapezoid_cost_vector(src, nbrs, weights)
        rotated = np.concatenate((cost[pref:], cost[:pref]))
        step = int(np.argmin(rotated))
        return (pref + step) % num_lines, int(rotated[step])

    def _trapezoid_cost_vector(
        self, src: np.ndarray, nbrs: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Classic direct-mapped cost over all candidate start lines.

        Each (fixed, moving) edge is a trapezoid over the start offset;
        scatter its four second-difference deltas, double-cumsum, fold.
        """
        num_lines = self.num_lines
        sm = self.span_len[src]
        sf = self.span_len[nbrs]
        starts = (self.start_line[nbrs] - (self.start_line[src] + sm - 1)) % num_lines
        width = int(np.max(sf + sm))
        rows = (num_lines + width) // num_lines + 1
        need = rows * num_lines
        if self._second.size < need:
            self._second = np.zeros(need, dtype=np.int64)
        second = self._second[:need]
        second[:] = 0
        idx = np.concatenate((starts, starts + sf, starts + sm, starts + sf + sm))
        val = np.concatenate((weights, -weights, -weights, weights))
        np.add.at(second, idx, val)
        np.cumsum(second, out=second)
        np.cumsum(second, out=second)
        return second.reshape(rows, num_lines).sum(axis=0)

    def _coverage(self, pairs: np.ndarray) -> np.ndarray:
        """Popular-chunk occupancy per cache set for a batch of spans.

        Interval scatter + cumsum + circular fold; spans longer than the
        set count are clamped to full coverage (they occupy every set).
        """
        num_lines = self.num_lines
        buf = np.zeros(2 * num_lines + 1, dtype=np.int64)
        if pairs.size:
            starts = self.start_line[pairs]
            lens = np.minimum(self.span_len[pairs], num_lines)
            np.add.at(buf, starts, 1)
            np.add.at(buf, starts + lens, -1)
            np.cumsum(buf, out=buf)
        return buf[:num_lines] + buf[num_lines : 2 * num_lines]

    def _gated_cost_vector(
        self,
        moving: np.ndarray,
        src: np.ndarray,
        nbrs: np.ndarray,
        weights: np.ndarray,
        include_owner: int | None,
    ) -> np.ndarray:
        """Occupancy-gated set-collision cost over all candidate starts.

        Exact integer computation in (t, u) coordinates, where ``t`` is
        the set a fixed span covers and ``u`` the (unshifted) set a
        moving span covers — placing the moving node at start ``s``
        sends ``u`` to set ``t = (u + s) mod S``:

        1. scatter each masked edge's weight as a rectangle
           ``fixed span x moving span`` onto an unwrapped ``(2S, 2S)``
           grid (4 corner deltas, one cumsum per axis, quadrant fold);
        2. zero every cell where the post-placement occupancy of set
           ``t`` — fixed coverage ``F[t]`` plus the whole moving node's
           coverage ``M[u]`` — does not exceed ``ways``;
        3. fold anti-diagonals ``t - u = s (mod S)`` into the per-start
           cost vector.

        With ``ways == 1`` every populated cell has ``F[t] >= 1`` and
        ``M[u] >= 1``, the gate never closes, and the result equals
        :meth:`_trapezoid_cost_vector` exactly.
        """
        num_lines = self.num_lines
        side = 2 * num_lines
        if self._grid is None:
            self._grid = np.zeros((side, side), dtype=np.int64)
            t = np.arange(num_lines, dtype=np.int64)
            self._diag_u = (t[:, None] - t[None, :]) % num_lines
        grid = self._grid
        grid[:] = 0
        fs = self.start_line[nbrs]
        fl = np.minimum(self.span_len[nbrs], num_lines)
        ms = self.start_line[src]
        ml = np.minimum(self.span_len[src], num_lines)
        np.add.at(grid, (fs, ms), weights)
        np.add.at(grid, (fs, ms + ml), -weights)
        np.add.at(grid, (fs + fl, ms), -weights)
        np.add.at(grid, (fs + fl, ms + ml), weights)
        np.cumsum(grid, axis=0, out=grid)
        np.cumsum(grid, axis=1, out=grid)
        quad = (
            grid[:num_lines, :num_lines]
            + grid[num_lines:, :num_lines]
            + grid[:num_lines, num_lines:]
            + grid[num_lines:, num_lines:]
        )
        fixed_mask = self.owner == FIXED
        if include_owner is not None:
            fixed_mask |= self.owner == include_owner
        occupancy_f = self._coverage(np.flatnonzero(fixed_mask))
        occupancy_m = self._coverage(moving)
        gate = (occupancy_f[:, None] + occupancy_m[None, :]) > self.cost_model.ways
        quad[~gate] = 0
        t = np.arange(num_lines, dtype=np.int64)
        return quad[t[:, None], self._diag_u].sum(axis=0)


class ArrayCompoundMerger:
    """Drop-in :class:`~repro.core.compound.CompoundMerger` on the engine.

    Same ``anchor``/``merge`` contract and bit-identical decisions, but
    node pair spans live in the engine's flat arrays (updated by constant
    shifts) and each node's Figure 2 initial scan point is maintained
    incrementally instead of being recomputed from the offsets dict.

    Args:
        engine: Shared span/owner state; constants and the stack must
            already be registered as :data:`FIXED`.
        entity_sizes: Placement sizes per entity id (``max(size, 1)``).
        nodes: The Phase 3/5 compound nodes at Phase 6 entry; their
            current offsets seed the span arrays and scan points.
    """

    def __init__(
        self,
        engine: ArrayPlacementEngine,
        entity_sizes: dict[int, int],
        nodes: dict[int, CompoundNode],
    ):
        self.engine = engine
        self.entity_sizes = entity_sizes
        self.merge_count = 0
        self.anchor_count = 0
        line_size = engine.config.line_size
        self._node_pairs: dict[int, np.ndarray] = {}
        # Highest occupied line bound per node, in (unwrapped) lines:
        # ``choose_intelligent_initial_start_point`` of Figure 2.  A merge
        # shift of k lines adds exactly k, so the maximum is incremental.
        self._node_high: dict[int, int] = {}
        for nid, node in nodes.items():
            pair_ids = []
            high = 0
            for eid, offset in node.offsets.items():
                engine.set_entity_span(eid, offset, entity_sizes[eid])
                pair_ids.append(engine.index.pair_ids(eid))
                end = offset + entity_sizes[eid]
                high = max(high, -(-end // line_size))
            pairs = (
                np.concatenate(pair_ids)
                if pair_ids
                else np.empty(0, dtype=np.int64)
            )
            engine.set_owner(pairs, nid)
            self._node_pairs[nid] = pairs
            self._node_high[nid] = high

    def anchor(self, node: CompoundNode) -> int:
        """Place an unanchored node against the ``Stack_Const`` image."""
        engine = self.engine
        pairs = self._node_pairs[node.node_id]
        start, cost = engine.scan(pairs, None, preferred_start=0)
        engine.shift(pairs, start)
        shift = start * engine.config.line_size
        for eid in node.offsets:
            node.offsets[eid] += shift
        self._node_high[node.node_id] += start
        node.anchored = True
        self.anchor_count += 1
        return cost

    def merge(self, node1: CompoundNode, node2: CompoundNode) -> int:
        """Merge ``node2`` into ``node1`` at the least-conflict offset."""
        if not node1.anchored:
            self.anchor(node1)
        engine = self.engine
        nid1, nid2 = node1.node_id, node2.node_id
        moving = self._node_pairs[nid2]
        preferred = self._node_high[nid1] % engine.num_lines
        start, cost = engine.scan(moving, nid1, preferred_start=preferred)
        engine.shift(moving, start)
        engine.set_owner(moving, nid1)
        self._node_pairs[nid1] = np.concatenate(
            (self._node_pairs[nid1], moving)
        )
        del self._node_pairs[nid2]
        self._node_high[nid1] = max(
            self._node_high[nid1], self._node_high.pop(nid2) + start
        )
        shift = start * engine.config.line_size
        for eid, offset in node2.offsets.items():
            node1.offsets[eid] = offset + shift
        node2.offsets.clear()
        node2.anchored = True
        self.merge_count += 1
        return cost
