"""Windowed trace views: per-window TRGs and the sliding-window deltas.

Three pieces the streaming engine composes, each on the batched
profiler's kernels (:mod:`repro.profiling.batch`):

* :func:`window_profile` — the profile of a trace prefix (the training
  window), exactly what profiling a run truncated there would
  produce.  The adaptive engine's initial placement and the
  static train-on-first-window baseline both come from this, so "drift
  detection disabled" reproduces the static
  :class:`~repro.core.algorithm.CCDPPlacer` placement exactly.
* :func:`build_entity_map` + :func:`window_trg` — the full-trace
  object -> entity map (one lifetime-op replay) and a per-window TRG
  from the same recency pass :func:`~repro.profiling.batch.profile_trace`
  runs.
* :class:`WindowAggregator` — turns a stream of per-window edge dicts
  into add/retire deltas for
  :meth:`~repro.core.cache_struct.TRGIndex.apply_edge_deltas`, keeping
  the last ``history`` windows live.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..cache.config import CacheConfig
from ..naming.xor import DEFAULT_NAME_DEPTH
from ..profiling.batch import name_profile, replay_entities, trg_edges
from ..profiling.profile_data import Profile, edge_dict
from ..profiling.trg import DEFAULT_CHUNK_SIZE, EdgeKey
from ..trace.buffer import TraceRecorder


def window_profile(
    trace: TraceRecorder,
    end_event: int,
    cache_config: CacheConfig | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_depth: int = DEFAULT_NAME_DEPTH,
    queue_threshold: int | None = None,
) -> Profile:
    """Profile the first ``end_event`` accesses of a recorded trace.

    Lifetime ops at or before the cut are applied and later ones dropped,
    so the result is exactly the profile of a run that stopped at the
    cut.  Runs :func:`~repro.profiling.batch.profile_trace`'s body
    without its counters, and never through the artifact store, which
    keys profiles by the whole trace.

    Raises:
        TraceError: As :func:`~repro.profiling.batch.profile_trace`.
    """
    end = min(max(0, end_event), trace.events)
    named = name_profile(
        trace, end, cache_config, chunk_size, name_depth, queue_threshold
    )
    profile = named.profile
    trg = trg_edges(
        named.eids, named.chunks, named.entry_bytes, profile.queue_threshold
    )
    profile.trg_columns = trg.columns
    return profile


def build_entity_map(
    trace: TraceRecorder,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_depth: int = DEFAULT_NAME_DEPTH,
) -> tuple[Profile, np.ndarray, np.ndarray]:
    """Full-trace entity universe from one lifetime-op replay.

    Returns ``(profile, eid_map, entry_bytes)``: a profile holding every
    entity the trace will ever declare (no access counters — the TRG is
    built per window), the object-id -> entity-id gather map, and the
    per-entity recency-queue entry bytes (the replay's last size update:
    the final entity size, or the chunk size for anything chunk-sized or
    larger).
    """
    replay = replay_entities(trace, chunk_size=chunk_size, name_depth=name_depth)
    profile = replay.profile
    entry_bytes = np.full(max(profile.entities) + 1, chunk_size, dtype=np.int64)
    for _position, eid, entry in replay.size_updates:
        entry_bytes[eid] = entry
    return profile, replay.eid_map, entry_bytes


def window_trg(
    eids: np.ndarray,
    chunks: np.ndarray,
    entry_bytes: np.ndarray,
    queue_threshold: int,
) -> dict[EdgeKey, int]:
    """TRG edges of one window of (entity, chunk) references.

    ``entry_bytes`` is indexed by entity.  Each window starts from an
    empty recency queue.  The dict is built from the pass's columns for
    :class:`WindowAggregator`.
    """
    trg = trg_edges(eids, chunks, entry_bytes[eids], queue_threshold)
    return edge_dict(trg.columns)


class WindowAggregator:
    """Sliding window of per-window TRGs as add/retire edge deltas.

    ``push`` admits the newest window and retires the oldest beyond
    ``history``, returning the net weight delta per edge — exactly the
    input :meth:`~repro.core.cache_struct.TRGIndex.apply_edge_deltas`
    consumes.  Deltas that cancel (a recurring edge with equal weight in
    the retiring and arriving windows) are dropped, keeping the index's
    in-place fast path hot on stationary streams.
    """

    def __init__(self, history: int):
        self.history = max(1, history)
        self._windows: deque[dict[EdgeKey, int]] = deque()

    @property
    def depth(self) -> int:
        """Number of windows currently aggregated."""
        return len(self._windows)

    def push(self, edges: dict[EdgeKey, int]) -> dict[EdgeKey, int]:
        """Admit one window's edges; return the net deltas to apply."""
        deltas: dict[EdgeKey, int] = {}
        if len(self._windows) >= self.history:
            for key, weight in self._windows.popleft().items():
                deltas[key] = deltas.get(key, 0) - weight
        for key, weight in edges.items():
            deltas[key] = deltas.get(key, 0) + weight
        self._windows.append(edges)
        return {key: delta for key, delta in deltas.items() if delta != 0}
