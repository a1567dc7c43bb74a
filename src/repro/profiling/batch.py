"""Batched profiling: build a Profile from a recorded trace, vectorized.

Profiling does four things per memory reference: map the object to its
placement entity, tick the entity's reference/lifetime counters,
compute the TRG chunk, and feed the recency queue.  Over a recorded
trace (:class:`~repro.trace.buffer.TraceRecorder`) that work splits into
two kernels, which are the only way a trace becomes entities and TRG
edges; a caller without a trace records one first:

* :func:`replay_entities` walks the (rare) lifetime ops once through an
  :class:`~repro.profiling.profiler.EntityNamer`.  That reproduces the
  op side of the profile exactly (entity creation, heap naming,
  collision flags, allocation adjacency) and yields the object -> entity
  map, each object's declaration position, and the timeline of
  queue-entry sizes.  The map is *write-once* (object ids are never
  reused and each is bound to exactly one entity at
  declaration/allocation), so the whole entity column is one vectorized
  gather with the final map.
* :func:`trg_edges` runs the recency queue as array passes.  Only the
  *boundaries* of consecutive-duplicate (entity, chunk) runs reach the
  queue: a repeated reference to the queue front moves nothing.  A
  reference hits when its key was not evicted since its previous
  reference ``p``: the bytes queued in front of the key are those of
  the keys referenced since ``p`` at their latest sizes, so the test is
  a byte-weighted stack distance, answered for all references at once
  by prefix sums and, for the long gaps, on the merge-sort tree of
  :func:`repro.cache.stack.capped_sums`.  Evictions are the misses less
  the keys still queued at the end.  Hit ``i`` walks the keys last
  referenced between ``p`` and ``i``, newest first; those intervals are
  scanned in chunks of :data:`SCAN_CHUNK` positions, and each chunk is
  folded into per-edge weights and first-increment positions, which
  recover the per-reference queue's edges — including their insertion
  order, which downstream tie-breaking may observe — without buffering
  the whole walk.  The edges come out as
  :class:`~repro.profiling.profile_data.TRGColumns`; no edge dict is
  built.

:func:`name_profile` is the replay plus per-entity counters from one
stable sort, and returns the per-access entity, chunk and entry-bytes
columns; each caller picks the references it hands to
:func:`trg_edges`.  :func:`profile_trace` hands it all of them, the
adaptive engine its training prefix (and one window at a time), and
:func:`~repro.profiling.sampling.sampled_profile` its sampling windows.
A profile keeps the pass's columns, so its edge dict is built only if
:attr:`Profile.trg` is read.  ``tests/oracles.py`` keeps the per-event
profiler these kernels must equal, dict for dict.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..cache.config import CacheConfig
from ..cache.stack import capped_sums, previous_touch
from ..naming.xor import DEFAULT_NAME_DEPTH
from ..obs import telemetry as obs
from ..trace.buffer import (
    TraceRecorder,
    _NEVER,
    _OP_FREE,
    _OP_OBJECT,
    _OP_STACK_DEPTH,
    check_offsets,
)
from ..trace.events import STACK_OBJECT_ID, TraceError
from .profile_data import Profile, STACK_ENTITY_ID, TRGColumns
from .profiler import EntityNamer
from .trg import DEFAULT_CHUNK_SIZE

_EMPTY = np.empty(0, dtype=np.int64)
_NO_EDGES = TRGColumns(_EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY)

#: Hit-interval positions the TRG walk scans per chunk (:func:`trg_edges`).
SCAN_CHUNK = 1 << 16
#: Largest edge key space folded into dense arrays; larger ones sort.
_DENSE_PAIRS = 1 << 24


class EntityReplay(NamedTuple):
    """One replay of a trace's lifetime ops (:func:`replay_entities`).

    ``profile`` holds the declared entities without access counters.
    ``eid_map`` maps object id to entity id, the stack entity for an id
    no op declared; ``declared_at`` holds each id's declaring op
    position (``_NEVER`` for none).  ``size_updates`` lists
    ``(position, entity, entry bytes)`` in position order.
    """

    profile: Profile
    eid_map: np.ndarray
    declared_at: np.ndarray
    size_updates: list[tuple[int, int, int]]


class TRGPass(NamedTuple):
    """One recency-queue pass (:func:`trg_edges`).

    ``columns`` holds the edges in first-increment order, each with its
    lower (entity, chunk) endpoint first.  ``kept`` counts the references
    that reached the queue.
    """

    columns: TRGColumns
    evictions: int
    kept: int


def replay_entities(
    trace: TraceRecorder,
    end_event: int | None = None,
    *,
    cache_config: CacheConfig | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_depth: int = DEFAULT_NAME_DEPTH,
    queue_threshold: int | None = None,
) -> EntityReplay:
    """Replay the lifetime ops at or before ``end_event`` (default: all).

    The one walk of ``trace.lifetime_ops`` through a fresh
    :class:`EntityNamer`, reproducing the deterministic entity
    numbering a per-event profile of the same run assigns.  The access
    columns are read only for their largest object id among the first
    ``end_event`` accesses, which sizes the maps.
    ``cache_config`` and ``queue_threshold`` only set the returned
    profile's queue threshold.

    Raises:
        ValueError: A non-positive chunk size or queue threshold.
    """
    sink = EntityNamer(
        cache_config=cache_config,
        chunk_size=chunk_size,
        name_depth=name_depth,
        queue_threshold=queue_threshold,
    )
    obj_col = trace.columns()[0]
    end = len(obj_col) if end_event is None else end_event
    max_obj = int(obj_col[:end].max()) if end else STACK_OBJECT_ID
    size = max(max_obj, STACK_OBJECT_ID) + 1
    eid_map = np.zeros(size, dtype=np.int64)
    eid_map[STACK_OBJECT_ID] = STACK_ENTITY_ID
    declared_at = np.full(size, _NEVER, dtype=np.int64)
    declared_at[STACK_OBJECT_ID] = 0

    entities = sink.profile.entities
    entity_of_object = sink._entity_of_object
    size_updates: list[tuple[int, int, int]] = []
    for position, kind, payload in trace.lifetime_ops:
        if position > end:
            break
        TraceRecorder._replay_op(sink, kind, payload)
        if kind == _OP_FREE:
            continue
        if kind == _OP_STACK_DEPTH:
            eid = STACK_ENTITY_ID
        else:
            obj_id = (payload if kind == _OP_OBJECT else payload[0]).obj_id
            eid = entity_of_object[obj_id]
            if 0 <= obj_id < size:
                eid_map[obj_id] = eid
                declared_at[obj_id] = position
        # The queue-entry size of this entity's references from here on.
        entity_size = entities[eid].size
        entry = entity_size if entity_size and entity_size < chunk_size else chunk_size
        size_updates.append((position, eid, entry))
    return EntityReplay(sink.profile, eid_map, declared_at, size_updates)


def trace_entity_map(
    trace: TraceRecorder, name_depth: int = DEFAULT_NAME_DEPTH
) -> np.ndarray:
    """Object id -> entity id for a recorded trace, lifetime ops only.

    Consumers that have per-*object* statistics (e.g. the two-level
    calibration pass of :func:`repro.cache.hierarchy.entity_l2_penalties`)
    use this to aggregate them onto placement entities.
    """
    return replay_entities(trace, name_depth=name_depth).eid_map


def _entry_bytes_column(
    eids: np.ndarray,
    size_updates: list[tuple[int, int, int]],
    chunk_size: int,
) -> np.ndarray:
    """Queue-entry bytes in effect at each access, vectorized.

    Access ``i`` of ``eids`` sits at stream position ``i``.
    ``size_updates`` holds (stream position, entity, entry bytes) in
    position order; an update at position ``p`` fires before the access
    at position ``p``.  Merging updates and accesses into one sequence
    sorted by (entity, position, updates-first) turns "latest update at
    or before this access" into a per-entity forward fill.
    """
    m = len(eids)
    if not size_updates or m == 0:
        return np.full(m, chunk_size, dtype=np.int64)
    upd_pos, upd_eid, upd_val = (
        np.array(column, dtype=np.int64) for column in zip(*size_updates)
    )
    count = len(upd_pos)
    all_eids = np.concatenate((upd_eid, eids))
    pos = np.concatenate((upd_pos, np.arange(m, dtype=np.int64)))
    # Updates sort before the same-position access; ties between updates
    # keep list order (the later update wins the forward fill).
    tie = np.concatenate(
        (np.arange(count), np.full(m, count, dtype=np.int64))
    )
    order = np.lexsort((tie, pos, all_eids))
    is_update = order < count
    n = count + m
    rows = np.arange(n, dtype=np.int64)
    last_update = np.maximum.accumulate(np.where(is_update, rows, -1))
    sorted_eids = all_eids[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_eids[1:], sorted_eids[:-1], out=boundary[1:])
    group_start = np.maximum.accumulate(np.where(boundary, rows, -1))
    values = np.full(n, chunk_size, dtype=np.int64)
    valid = last_update >= group_start
    values[valid] = upd_val[order[last_update[valid]]]
    entry = np.empty(m, dtype=np.int64)
    access_rows = ~is_update
    entry[order[access_rows] - count] = values[access_rows]
    return entry


def _chunked_ranges(lengths: np.ndarray, chunk: int):
    """Lay ranges end to end and yield them in pieces of ``chunk`` elements.

    Range ``r`` holds ``lengths[r]`` elements, and a range may straddle
    pieces.  Each piece yields ``(rows, counts, offset)``: the slice of
    ranges it touches, how many of its elements each holds (spread a
    per-range column over the piece with ``np.repeat(column[rows],
    counts)``), and each element's offset inside its range.
    """
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1]) if len(ends) else 0
    for a in range(0, total, chunk):
        b = min(total, a + chunk)
        rows = slice(
            int(np.searchsorted(ends, a, side="right")),
            int(np.searchsorted(ends, b, side="left")) + 1,
        )
        counts = np.minimum(ends[rows], b) - np.maximum(starts[rows], a)
        offset = np.arange(a, b, dtype=np.int64) - np.repeat(starts[rows], counts)
        yield rows, counts, offset


def _queue_survival(
    prev: np.ndarray, nxt: np.ndarray, entry: np.ndarray, threshold: int
) -> np.ndarray:
    """Whether each reference's key is still queued just before its next one.

    ``nxt[p]`` is the next reference to ``p``'s key, ``n`` for none (the
    key is then tested at the end of the stream).  After reference ``p``
    its key holds ``entry[p]`` bytes at the queue front; at each later
    step ``q`` the entries in front of it are the keys referenced in
    ``(p, q]``, each at its latest size, so it survives step ``q``
    exactly when ``S(q) = entry[p] + sum(entry[j] : p < j <= q,
    nxt[j] > q)`` is at most ``threshold``.  ``S`` falls only at a
    *shrink* ``c`` (``prev[c] > p`` and ``entry[c] < entry[prev[c]]``),
    so the steps to test are ``nxt[p] - 1`` and ``c - 1`` for each
    shrink in between.  The newest reference always survives: eviction
    never empties the queue.
    """
    n = len(entry)
    bytes_before = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(entry, out=bytes_before[1:])
    room = threshold - entry
    # Quick test: every byte referenced in between fits.
    survives = bytes_before[nxt] - bytes_before[1:] <= room
    survives[-1] = True
    query = np.flatnonzero(~survives & (room >= 0))
    if not len(query):
        return survives
    # Tree values n - nxt[j] <= n - hi select the j with nxt[j] >= hi.
    values = n - nxt
    ends = nxt[query]
    survives[query] = capped_sums(
        values, query + 1, ends, n - ends, room[query], weights=entry
    )
    shrinks = np.flatnonzero((prev >= 0) & (entry < entry[np.maximum(prev, 0)]))
    query = query[survives[query]]
    if not len(shrinks) or not len(query):
        return survives
    first = np.searchsorted(shrinks, query, side="right")
    lengths = np.searchsorted(shrinks, nxt[query], side="left") - first
    for rows, counts, offset in _chunked_ranges(lengths, SCAN_CHUNK):
        p = np.repeat(query[rows], counts)
        c = shrinks[np.repeat(first[rows], counts) + offset]
        inside = prev[c] > p
        p, c = p[inside], c[inside]
        ok = capped_sums(values, p + 1, c, n - c, room[p], weights=entry)
        survives[p[~ok]] = False
    return survives


def trg_edges(
    eids: np.ndarray,
    chunks: np.ndarray,
    entry_bytes: np.ndarray,
    queue_threshold: int,
) -> TRGPass:
    """One recency-queue pass over a stream of (entity, chunk) references.

    ``entry_bytes[i]`` is the queue-entry size in effect at reference
    ``i``; chunks are non-negative.  The edge columns equal, weight for
    weight and in insertion order, the dict the per-reference queue
    (``TRGBuilder`` in ``tests/oracles.py``) builds from the same
    stream, and so does the eviction count.  Emits no telemetry.
    """
    total = len(eids)
    if not total:
        return TRGPass(_NO_EDGES, 0, 0)
    # Only boundaries of consecutive-duplicate (entity, chunk) runs reach
    # the queue — the scalar front-of-queue check skips the rest, and the
    # queue front is always the previous reference's pair, so the two
    # skip sets are identical.  Pairs are packed into single ints (chunk
    # < span, so packed order == tuple order).
    span = int(chunks.max()) + 1
    packed = eids * span + chunks
    keep = np.empty(total, dtype=bool)
    keep[0] = True
    np.not_equal(packed[1:], packed[:-1], out=keep[1:])
    stream = packed[keep]
    entry = entry_bytes[keep]
    n = len(stream)

    # Rank-compress the keys, so the edge key space is (#keys)^2.
    prev, order = previous_touch(stream)
    sorted_keys = stream[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    uniq_keys = sorted_keys[head]
    num_keys = len(uniq_keys)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(head) - 1
    # Free the sort temporaries before the survival pass peaks.
    del packed, keep, stream, order, sorted_keys, head
    hits = np.flatnonzero(prev >= 0)
    nxt = np.full(n, n, dtype=np.int64)
    nxt[prev[hits]] = hits

    # A reference hits when its key survived since its previous
    # reference.  Every miss inserts a key, which is later evicted or
    # still queued at the end.
    survives = _queue_survival(prev, nxt, entry, queue_threshold)
    hits = hits[survives[prev[hits]]]
    evictions = n - len(hits) - int(np.count_nonzero(survives[nxt == n]))
    if not len(hits):
        return TRGPass(_NO_EDGES, evictions, n)

    # Hit i walks the queue entries in front of its key: the keys last
    # referenced at j in (prev[i], i), newest first.  Scanning each
    # interval in descending j follows the scalar builder's increment
    # order, so the first position of each edge gives its dict insertion
    # order.  Each scanned piece folds into per-edge weights over the
    # (#keys)^2 pair ids; pair id key_space collects the scanned j that
    # are not walked (their key is referenced again before i).
    key_space = num_keys * num_keys
    dense = key_space <= _DENSE_PAIRS
    if dense:
        weights = np.zeros(key_space + 1, dtype=np.int64)
        first = np.full(key_space + 1, -1, dtype=np.int64)
    else:
        partial: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    hit_rank = rank[hits]
    scanned = 0
    for rows, counts, offset in _chunked_ranges(hits - prev[hits] - 1, SCAN_CHUNK):
        at = np.repeat(hits[rows], counts)
        j = at - 1 - offset
        a = rank[j]
        b = np.repeat(hit_rank[rows], counts)
        pair = np.minimum(a, b) * num_keys + np.maximum(a, b)
        pair[nxt[j] < at] = key_space
        if dense:
            np.add.at(weights, pair, 1)
            fresh = np.flatnonzero(first[pair] < 0)[::-1]
            # Reversed scatter: the last write, the earliest position, wins.
            first[pair[fresh]] = scanned + fresh
        else:
            uniq, row, pair_counts = np.unique(
                pair, return_index=True, return_counts=True
            )
            partial.append((uniq, scanned + row, pair_counts))
        scanned += len(pair)
    if dense:
        pids = np.flatnonzero(weights[:key_space])
        pids = pids[np.argsort(first[pids])]
        weights = weights[pids]
    else:
        pair, row, pair_counts = (np.concatenate(column) for column in zip(*partial))
        by_pair = np.lexsort((row, pair))
        pair = pair[by_pair]
        heads = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))
        weights = np.add.reduceat(pair_counts[by_pair], heads)
        pids = pair[heads]
        walked = pids < key_space
        insert_order = np.argsort(row[by_pair][heads][walked])
        pids = pids[walked][insert_order]
        weights = weights[walked][insert_order]
    key_eid, key_chunk = np.divmod(uniq_keys, span)
    lo_r, hi_r = np.divmod(pids, num_keys)
    columns = TRGColumns(
        key_eid[lo_r], key_chunk[lo_r], key_eid[hi_r], key_chunk[hi_r], weights
    )
    return TRGPass(columns, evictions, n)


class NamedAccesses(NamedTuple):
    """A Name profile and its per-access columns (:func:`name_profile`).

    ``profile`` holds the entities with their access counters and
    ``total_accesses``, and no TRG yet.  Access ``i`` references chunk
    ``chunks[i]`` of entity ``eids[i]``, whose queue entry accounts for
    ``entry_bytes[i]`` bytes at that point.
    """

    profile: Profile
    eids: np.ndarray
    chunks: np.ndarray
    entry_bytes: np.ndarray


def name_profile(
    trace: TraceRecorder,
    end: int,
    cache_config: CacheConfig | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_depth: int = DEFAULT_NAME_DEPTH,
    queue_threshold: int | None = None,
) -> NamedAccesses:
    """Name-profile accesses ``0..end-1`` and the lifetime ops up to ``end``.

    The body every profile shares: the entity replay, the per-entity
    reference counts and first/last access clocks, and the columns a
    :func:`trg_edges` pass reads.  Emits no telemetry.

    Raises:
        TraceError: As :func:`profile_trace`.
        ValueError: A non-positive chunk size or queue threshold.
    """
    trace.require_ended()
    replay = replay_entities(
        trace,
        end,
        cache_config=cache_config,
        chunk_size=chunk_size,
        name_depth=name_depth,
        queue_threshold=queue_threshold,
    )
    profile = replay.profile
    entities = profile.entities
    obj_col, offset_col, _size, _cat, _store = trace.columns()
    obj = obj_col[:end]
    # Access ``p`` may touch an object declared by an op at ``p`` (the op
    # fires first); a negative id, or one no op declared, never exists.
    early = (obj < 0) | (replay.declared_at[np.maximum(obj, 0)] > np.arange(end))
    if early.any():
        bad = int(np.argmax(early))
        raise TraceError(
            f"corrupt trace: access to unknown object id {int(obj[bad])} "
            f"at position {bad} (not declared or allocated before it)"
        )
    offset = offset_col[:end]
    check_offsets(0, obj, offset)
    eid_col = replay.eid_map[obj]

    if end:
        # Per-entity reference counts and first/last access clocks via one
        # stable sort: within each entity group the original positions are
        # ascending, so group head/tail are the first/last accesses.  The
        # narrowed dtype makes the stable sort a short radix sort.
        order = np.argsort(
            eid_col.astype(np.min_scalar_type(int(eid_col.max())), copy=False),
            kind="stable",
        )
        sorted_eids = eid_col[order]
        heads = np.empty(end, dtype=bool)
        heads[0] = True
        np.not_equal(sorted_eids[1:], sorted_eids[:-1], out=heads[1:])
        head_pos = np.flatnonzero(heads)
        tail_pos = np.concatenate((head_pos[1:], [end])) - 1
        group_eids = sorted_eids[head_pos].tolist()
        group_refs = np.diff(np.concatenate((head_pos, [end]))).tolist()
        group_first = (order[head_pos] + 1).tolist()
        group_last = (order[tail_pos] + 1).tolist()
        for eid, refs, first, last in zip(
            group_eids, group_refs, group_first, group_last
        ):
            entity = entities[eid]
            entity.refs = refs
            entity.first_access = first
            entity.last_access = last

    profile.total_accesses = end
    return NamedAccesses(
        profile,
        eid_col,
        offset // chunk_size,
        _entry_bytes_column(eid_col, replay.size_updates, chunk_size),
    )


def count_profile(profile: Profile, trg: TRGPass) -> None:
    """Report one finished profile's event, edge and queue counters."""
    obs.count("profile.kept_boundaries", trg.kept)
    obs.count("profile.events", profile.total_accesses)
    obs.count("profile.trg_edges", len(trg.columns.weight))
    obs.count("profile.queue_evictions", trg.evictions)


def profile_trace(
    trace: TraceRecorder,
    cache_config: CacheConfig | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_depth: int = DEFAULT_NAME_DEPTH,
    queue_threshold: int | None = None,
) -> Profile:
    """Profile a recorded trace: its Name profile and the TRG of every access.

    Accepts the same knobs as
    :func:`~repro.runtime.driver.profile_workload` and produces the
    :class:`~repro.profiling.profile_data.Profile` the per-event
    profiler (``ProfilerSink`` in ``tests/oracles.py``) yields on the
    same stream.

    Raises:
        TraceError: The recording is truncated (no ``on_end`` marker), an
            access touches an object before its declaration or an id no
            op declared, or an access has a negative offset.  A use after
            free passes: a profile names objects, it does not resolve
            them.
        ValueError: A non-positive chunk size or queue threshold.
    """
    named = name_profile(
        trace, trace.events, cache_config, chunk_size, name_depth, queue_threshold
    )
    profile = named.profile
    trg = trg_edges(
        named.eids, named.chunks, named.entry_bytes, profile.queue_threshold
    )
    profile.trg_columns = trg.columns
    count_profile(profile, trg)
    return profile
