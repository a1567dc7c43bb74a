"""Batched profiling: build a Profile from a recorded trace, vectorized.

The live :class:`~repro.profiling.profiler.ProfilerSink` does four things
per memory reference: map the object to its placement entity, tick the
entity's reference/lifetime counters, compute the TRG chunk, and feed the
recency queue.  Over a recorded trace
(:class:`~repro.trace.buffer.TraceRecorder`) the same work splits into
two kernels, which are the only way a recorded trace becomes entities and
TRG edges:

* :func:`replay_entities` walks the (rare) lifetime ops once through the
  sink's lifetime hooks.  That reproduces the op side of the profile
  exactly (entity creation, heap naming, collision flags, allocation
  adjacency) and yields the object -> entity map, each object's
  declaration position, and the timeline of queue-entry sizes.  The map
  is *write-once* (object ids are never reused and each is bound to
  exactly one entity at declaration/allocation), so the whole entity
  column is one vectorized gather with the final map.
* :func:`trg_edges` runs the recency queue.  Its front-of-queue fast
  path skips every reference whose (entity, chunk) pair equals the
  previous reference's pair, so only the *boundaries* of
  consecutive-duplicate runs ever touch the queue.  The queue itself
  (insertion, move-to-front, byte-bounded eviction, and the walk over
  entries in front of a hit) is inherently sequential and already
  output-sized — one walk step per edge increment — so it stays a Python
  loop, but each step shrinks to appending one packed (entity, chunk)
  key.  The per-edge accounting is lifted out: ordering each increment's
  endpoints, counting identical edges, and recovering the scalar
  builder's dict — including its insertion order, which downstream
  tie-breaking may observe — are all column operations.

:func:`profile_trace` is the replay, per-entity counters from one stable
sort, and the TRG pass; the adaptive engine runs the same body over its
training prefix and calls :func:`trg_edges` once per window.  The result
is equal, dict for dict, to profiling the live run.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from itertools import takewhile
from typing import NamedTuple

import numpy as np

from ..cache.config import CacheConfig
from ..naming.xor import DEFAULT_NAME_DEPTH
from ..obs import telemetry as obs
from ..trace.buffer import (
    TraceRecorder,
    _NEVER,
    _OP_FREE,
    _OP_OBJECT,
    _OP_STACK_DEPTH,
)
from ..trace.events import STACK_OBJECT_ID, TraceError
from .profile_data import Profile, STACK_ENTITY_ID
from .profiler import ProfilerSink
from .trg import DEFAULT_CHUNK_SIZE, EdgeKey

_EMPTY = np.empty(0, dtype=np.int64)


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

    ``edges`` is in first-increment order, and ``lo_eid``, ``hi_eid`` and
    ``weights`` are its columns in that order.  ``kept`` counts the
    references that reached the queue.
    """

    edges: dict[EdgeKey, int]
    evictions: int
    kept: int
    lo_eid: np.ndarray
    hi_eid: np.ndarray
    weights: np.ndarray


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
    :class:`ProfilerSink`'s lifetime hooks, reproducing the
    deterministic entity numbering a live profile of the same run
    assigns.  The access columns are read only for their largest object
    id among the first ``end_event`` accesses, which sizes the maps.
    ``cache_config`` and ``queue_threshold`` only set the returned
    profile's queue threshold.
    """
    sink = ProfilerSink(
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
        # The live profiler's entry size for this entity from here on.
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


def trg_edges(
    eids: np.ndarray,
    chunks: np.ndarray,
    entry_bytes: np.ndarray,
    queue_threshold: int,
) -> TRGPass:
    """One recency-queue pass over a stream of (entity, chunk) references.

    ``entry_bytes[i]`` is the queue-entry size in effect at reference
    ``i``.  The edges equal, weight for weight and in insertion order,
    what :class:`~repro.profiling.trg.TRGBuilder` builds from the same
    stream.  Emits no telemetry.
    """
    total = len(eids)
    if not total:
        return TRGPass({}, 0, 0, _EMPTY, _EMPTY, _EMPTY)
    # Only boundaries of consecutive-duplicate (entity, chunk) runs reach
    # the queue — the scalar front-of-queue check skips the rest, and the
    # queue front is always the previous reference's pair, so the two
    # skip sets are identical.  Pairs are packed into single ints (chunk
    # < span, so packed order == tuple order) so the recency pass and the
    # edge columns stay cheap.
    span = int(chunks.max()) + 1
    packed = eids * span + chunks
    keep = np.empty(total, dtype=bool)
    keep[0] = True
    np.not_equal(packed[1:], packed[:-1], out=keep[1:])
    stream = packed[keep]
    kept = len(stream)

    # Recency pass: the scalar queue's insert / move-to-front /
    # byte-bounded eviction bookkeeping, with the edge walk reduced to
    # appending each walked pair's packed key — the walk itself is
    # output-sized (one step per edge increment), so only the per-edge
    # dict accounting is worth lifting out; it is batched below as
    # column operations.
    walked = array("q")
    walk_append = walked.append
    walk_extend = walked.extend
    queue: "OrderedDict[int, int]" = OrderedDict()
    queue_get = queue.get
    move_to_end = queue.move_to_end
    popitem = queue.popitem
    queued_bytes = 0
    evictions = 0
    # The walk consumes queue entries newer than the hit key;
    # ``takewhile(key.__ne__, ...)`` into ``extend`` keeps the whole walk
    # in C.  A hit never has the key at the front (consecutive duplicates
    # were collapsed), and a hit implies at least two queued entries, so
    # the pre-event invariant "bytes <= threshold unless a single entry
    # overflows alone" lets unchanged-entry hits skip the byte accounting
    # and the eviction check entirely.
    for key, entry in zip(stream.tolist(), entry_bytes[keep].tolist()):
        old = queue_get(key)
        if old is not None:
            # ~key < 0 marks the hit boundary inside the walk list.
            walk_append(~key)
            walk_extend(takewhile(key.__ne__, reversed(queue)))
            move_to_end(key)
            if entry == old:
                continue
        queue[key] = entry
        queued_bytes += entry - (old or 0)
        while queued_bytes > queue_threshold and len(queue) > 1:
            _evicted, evicted_bytes = popitem(last=False)
            queued_bytes -= evicted_bytes
            evictions += 1
    if not walked:
        return TRGPass({}, evictions, kept, _EMPTY, _EMPTY, _EMPTY)

    # One edge increment per walked pair.  Append order is the scalar
    # builder's increment order, so first occurrence per distinct edge
    # reproduces its dict insertion order exactly.
    arr = np.frombuffer(walked, dtype=np.int64)
    boundary = arr < 0
    hit_pos = np.flatnonzero(boundary)
    counts = np.diff(np.concatenate((hit_pos, [len(arr)]))) - 1
    # Rank-compress the packed keys (every walked key appears in
    # ``stream``) so the pair key space shrinks to (#distinct keys)^2 —
    # usually small enough for dense accumulation.  searchsorted is
    # monotone, so min/max of ranks == min/max of keys, and
    # ``uniq_keys[rank]`` recovers the original key.  Only the hit
    # endpoints (pre-repeat) need ranking; the walked endpoints are ranked
    # in one pass.
    uniq_keys = np.unique(stream)
    a_r = np.searchsorted(uniq_keys, arr[~boundary])
    b_r = np.repeat(np.searchsorted(uniq_keys, ~arr[hit_pos]), counts)
    lo_r = np.minimum(a_r, b_r)
    hi_r = np.maximum(a_r, b_r)
    num_keys = len(uniq_keys)
    pair = lo_r * num_keys + hi_r
    key_space = num_keys * num_keys
    if key_space <= 1 << 24:
        # Dense accumulation: weights by bincount, first occurrence by a
        # reversed scatter (last write wins, so writing in reverse keeps
        # the earliest row) — two linear passes instead of sorting
        # millions of increments.
        dense_w = np.bincount(pair, minlength=key_space)
        first = np.full(key_space, -1, dtype=np.int64)
        first[pair[::-1]] = np.arange(len(pair) - 1, -1, -1)
        pids = np.flatnonzero(dense_w)
        pids = pids[np.argsort(first[pids])]
        rows = first[pids]
        weights = dense_w[pids]
    else:
        # Sparse key space: sort-based grouping on the narrowest dtype
        # the pair key fits.
        if key_space <= np.iinfo(np.uint32).max:
            pair = pair.astype(np.uint32)
        _uniq, first_idx, pair_counts = np.unique(
            pair, return_index=True, return_counts=True
        )
        insert_order = np.argsort(first_idx)
        rows = first_idx[insert_order]
        weights = pair_counts[insert_order]
    lo = uniq_keys[lo_r[rows]]
    hi = uniq_keys[hi_r[rows]]
    lo_eid = lo // span
    hi_eid = hi // span
    edge_cols = zip(
        lo_eid.tolist(),
        (lo % span).tolist(),
        hi_eid.tolist(),
        (hi % span).tolist(),
        weights.tolist(),
    )
    edges: dict[EdgeKey, int] = {}
    for eid_a, chunk_a, eid_b, chunk_b, weight in edge_cols:
        edges[((eid_a, chunk_a), (eid_b, chunk_b))] = weight
    return TRGPass(edges, evictions, kept, lo_eid, hi_eid, weights)


def _profile_prefix(
    trace: TraceRecorder,
    end: int,
    cache_config: CacheConfig | None,
    chunk_size: int,
    name_depth: int,
    queue_threshold: int | None,
) -> tuple[Profile, TRGPass]:
    """Profile accesses ``0..end-1`` and the lifetime ops at or before ``end``.

    The body of :func:`profile_trace` (``end`` is the trace length) and
    of the adaptive training window.  Emits no telemetry.
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

    trg = trg_edges(
        eid_col,
        offset_col[:end] // chunk_size,
        _entry_bytes_column(eid_col, replay.size_updates, chunk_size),
        profile.queue_threshold,
    )
    profile.trg = trg.edges
    profile.total_accesses = end

    # Popularity and entity affinity are pure edge reductions; precompute
    # them here so the placer never re-scans the edge dict.  Both
    # reproduce the scalar derivations exactly: popularity keys follow
    # entity order (the scalar dict is pre-seeded with every entity),
    # affinity keys follow first occurrence of each entity pair in edge
    # insertion order, and lo <= hi implies lo_eid <= hi_eid so the
    # packed endpoints are already the canonical pair.
    lo_eid, hi_eid, w = trg.lo_eid, trg.hi_eid, trg.weights
    num_eids = max(entities) + 1
    pop = np.zeros(num_eids, dtype=np.int64)
    np.add.at(pop, lo_eid, w)
    cross = lo_eid != hi_eid
    np.add.at(pop, hi_eid[cross], w[cross])
    pop_list = pop.tolist()
    profile._popularity = {eid: pop_list[eid] for eid in entities}
    lo_x, hi_x, w_x = lo_eid[cross], hi_eid[cross], w[cross]
    _u, pair_first, inverse = np.unique(
        lo_x * np.int64(num_eids) + hi_x, return_index=True, return_inverse=True
    )
    sums = np.bincount(inverse, weights=w_x).astype(np.int64)
    pair_order = np.argsort(pair_first)
    pair_rows = pair_first[pair_order]
    profile._affinity = dict(
        zip(
            zip(lo_x[pair_rows].tolist(), hi_x[pair_rows].tolist()),
            sums[pair_order].tolist(),
        )
    )
    return profile, trg


def profile_trace(
    trace: TraceRecorder,
    cache_config: CacheConfig | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_depth: int = DEFAULT_NAME_DEPTH,
    queue_threshold: int | None = None,
) -> Profile:
    """Profile a recorded trace; equal to profiling the live run.

    Accepts the same knobs as
    :func:`~repro.runtime.driver.profile_workload` and produces a
    :class:`~repro.profiling.profile_data.Profile` identical to what the
    scalar :class:`~repro.profiling.profiler.ProfilerSink` yields on the
    same stream.

    Raises:
        TraceError: The recording is truncated (no ``on_end`` marker), or
            an access touches an object before its declaration or an id
            no op declared.  A use after free passes, as in the live
            profiler: a profile names objects, it does not resolve them.
    """
    profile, trg = _profile_prefix(
        trace, trace.events, cache_config, chunk_size, name_depth, queue_threshold
    )
    obs.count("profile.kept_boundaries", trg.kept)
    obs.count("profile.events", profile.total_accesses)
    obs.count("profile.trg_edges", len(profile.trg))
    obs.count("profile.queue_evictions", trg.evictions)
    return profile
