"""Capped LRU stack distances over a chunk of block touches, vectorized.

An LRU structure of capacity ``cap`` — one set of a ``cap``-way cache, or
the fully associative three-Cs shadow — hits a touch exactly when the
block was touched before and fewer than ``cap`` *distinct* blocks were
touched strictly in between.  With ``prev[i]`` the position of the
previous touch of touch ``i``'s block, the distinct blocks between
``p = prev[i]`` and ``i`` are the positions ``j`` in ``(p, i)`` whose own
previous touch lies before ``p`` (each such ``j`` is the first touch of
its block inside the interval), so the hit test is a two-dimensional
dominance count.

:func:`capped_sums` answers such counts offline with a merge-sort
tree over positions: level ``k`` holds the values sorted within each
aligned block of ``2**k`` positions, one array per level, and a query
interval decomposes bottom-up into at most two blocks per level, each
counted with one ``searchsorted``.  Given per-position weights, a
level also carries its weights in sorted order and their prefix sums,
so a block yields the weight of its matching values instead of their
count.  A query is dropped once its sum passes its limit or its
interval is used up, so ``n`` positions cost at most ``log2(n) + 1``
rounds of NumPy passes whatever the interval lengths.
:func:`capped_hits` counts the distinct blocks (values ``prev + 1``);
the TRG recency queue of :func:`repro.profiling.batch.trg_edges` sums
the bytes queued in front of a key (values from the next touch,
weighted by queue-entry bytes).

:func:`lru_pass` wraps the counting for the simulator: touches are
grouped (by cache set, or one group for the shadow) and time-ordered
within each group, with the carried residents of each group prepended
oldest first as *pseudo-touches*.  Consecutive repeats of one block
collapse into one *run* (a repeat always hits), and the pass reports
which runs hit and which blocks are the ``cap`` most recently touched of
each group at the end — the residents to carry into the next chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def previous_touch(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each element's previous position holding the same key (-1 if none).

    Also returns the stable argsort of ``keys``, which groups equal keys
    with their positions ascending.  It is computed as a plain sort of
    ``key * n + position`` whenever that fits in 64 bits, which is several
    times faster than NumPy's stable argsort of 64-bit keys.
    """
    n = len(keys)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev, np.arange(n)
    low = int(keys.min())
    if (int(keys.max()) - low + 1) * n < 1 << 62:
        composite = (keys - low) * n + np.arange(n)
        composite.sort()
        order = composite % n
        sorted_keys = composite // n
    else:
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev, order


def _block_sums(keys, cum, blocks, bound, shift: int, width: int) -> np.ndarray:
    """Weight of the values ``<= bound`` in each tree block.

    ``keys`` offsets block b's values by ``b * width``; ``cum`` is the
    level's exclusive weight prefix sum, or ``None`` for unit weights.
    """
    base = blocks << shift
    count = np.searchsorted(keys, blocks * width + bound, side="right") - base
    if cum is None:
        return count
    return cum[base + count] - cum[base]


def capped_sums(
    values: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    bound: np.ndarray,
    limit: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Whether each query's dominance sum stays within its limit.

    Query ``k`` sums ``weights[j]`` (1 without weights) over the
    positions ``lo[k] <= j < hi[k]`` with ``values[j] <= bound[k]``, and
    is within when that sum is at most ``limit[k]``.  ``values`` lie in
    ``[0, n]``, every ``bound`` is below ``n`` and weights are
    non-negative.  An empty interval sums to 0.
    """
    n = len(values)
    within = limit >= 0
    query = np.flatnonzero(within & (lo < hi))
    if not len(query):
        return within
    # left and right walk each interval up the levels.
    left, right, bound, limit = lo[query], hi[query], bound[query], limit[query]
    total = np.zeros(len(query), dtype=np.int64)
    width = n + 1  # values are in [0, n]; n pads the tree's tail
    level = values
    level_weights = weights
    cum = None
    shift = 0
    while True:
        keys = level + (np.arange(len(level), dtype=np.int64) >> shift) * width
        if level_weights is not None:
            cum = np.zeros(len(level) + 1, dtype=np.int64)
            np.cumsum(level_weights, out=cum[1:])
        odd = (left & 1).astype(bool)
        total[odd] += _block_sums(keys, cum, left[odd], bound[odd], shift, width)
        left[odd] += 1
        odd = (right & 1).astype(bool)
        right[odd] -= 1
        total[odd] += _block_sums(keys, cum, right[odd], bound[odd], shift, width)
        left >>= 1
        right >>= 1
        over = total > limit
        done = (left >= right) | over
        if done.any():
            within[query[done]] = ~over[done]
            keep = ~done
            query, bound, limit, left, right, total = (
                query[keep],
                bound[keep],
                limit[keep],
                left[keep],
                right[keep],
                total[keep],
            )
        if not len(query):
            return within
        # Next level: merge sibling blocks (two sorted runs per row).
        span = 1 << shift
        if len(level) % (2 * span):
            level = np.concatenate([level, np.full(span, n, dtype=level.dtype)])
            if level_weights is not None:
                level_weights = np.concatenate(
                    [level_weights, np.zeros(span, dtype=level_weights.dtype)]
                )
        shift += 1
        rows = level.reshape(-1, 2 * span)
        if level_weights is None:
            level = np.sort(rows, axis=1, kind="stable").ravel()
        else:
            order = np.argsort(rows, axis=1, kind="stable")
            order += np.arange(0, len(level), 2 * span, dtype=np.int64)[:, None]
            order = order.ravel()
            level = level[order]
            level_weights = level_weights[order]


def capped_hits(prev: np.ndarray, cap: int) -> np.ndarray:
    """Whether fewer than ``cap`` distinct keys lie between each ``prev`` pair.

    ``prev`` comes from :func:`previous_touch`.  Element ``i`` hits when
    ``prev[i] >= 0`` and fewer than ``cap`` distinct keys occur strictly
    between positions ``prev[i]`` and ``i``.  Fewer than ``cap`` elements
    in between hit outright; the rest are counted on the merge-sort tree.
    """
    n = len(prev)
    hit = prev >= 0
    gap = np.arange(n, dtype=np.int64) - prev - 1
    query = np.flatnonzero(hit & (gap >= cap))
    if len(query):
        # Count the j in [lo, i) with prev[j] < lo, i.e. with tree value
        # prev[j] + 1 <= lo.
        lo = prev[query] + 1
        hit[query] = capped_sums(
            prev + 1, lo, query, lo, np.full(len(query), cap - 1, dtype=np.int64)
        )
    return hit


@dataclass
class LRUPass:
    """One chunk's LRU outcome over runs of repeated touches.

    Attributes:
        heads: Position of each run's first touch.
        blocks: Block of each run.
        hit: Whether each run's first touch hits (repeats always do).
        by_block: Runs stably sorted by block (positions ascending).
        residents: Runs of the final residents, grouped and oldest first.
    """

    heads: np.ndarray
    blocks: np.ndarray
    hit: np.ndarray
    by_block: np.ndarray
    residents: np.ndarray


def lru_pass(blocks: np.ndarray, groups: np.ndarray | None, cap: int) -> LRUPass:
    """Capped LRU over touches ordered by (group, time).

    ``groups`` holds each touch's group (cache set), nondecreasing, or
    ``None`` for a single group.  A block must always fall in the same
    group.  Carried residents go first in their group, oldest first.
    """
    total = len(blocks)
    repeat = np.zeros(total, dtype=bool)
    np.equal(blocks[1:], blocks[:-1], out=repeat[1:])
    heads = np.flatnonzero(~repeat)
    run_blocks = blocks[heads]
    prev, by_block = previous_touch(run_blocks)
    hit = capped_hits(prev, cap)

    # Final residents: the last run of each block, then the ``cap`` most
    # recent of those per group, kept in position (= LRU) order.
    sorted_blocks = run_blocks[by_block]
    last = np.ones(len(by_block), dtype=bool)
    np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=last[:-1])
    final = np.sort(by_block[last])
    if groups is None:
        residents = final[-cap:]
    else:
        group = groups[heads[final]]
        group_end = np.ones(len(final), dtype=bool)
        np.not_equal(group[1:], group[:-1], out=group_end[:-1])
        # Index of the last entry of each entry's group; keep the last cap.
        ends = np.flatnonzero(group_end)
        end_of = ends[np.searchsorted(ends, np.arange(len(final)))]
        residents = final[end_of - np.arange(len(final)) < cap]
    return LRUPass(heads, run_blocks, hit, by_block, residents)
