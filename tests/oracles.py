"""Per-event reference pipelines: the oracles the parity suites check against.

The product measures and places through the vectorized kernels only:
:func:`repro.runtime.driver.measure` records a trace and simulates it
with :class:`~repro.cache.batch.BatchCacheSimulator`, profiles come from
:func:`~repro.profiling.batch.profile_trace`, and
:class:`~repro.core.algorithm.CCDPPlacer` runs its conflict scans on the
:class:`~repro.core.placement_engine.ArrayPlacementEngine`.  This module
keeps the per-event twins those kernels must equal bit for bit:

* :func:`scalar_measure` — the live run through :class:`ReplaySink` into
  the per-event :class:`CacheSimulator` (and :class:`PageTracker`);
* :func:`scalar_profile` — the live run through :class:`ProfilerSink`;
* :func:`scalar_window_profile` — a recorded trace cut after its first
  accesses, replayed through :class:`ProfilerSink` (the twin of
  :func:`~repro.adaptive.windows.window_profile`);
* :func:`scalar_window_trg` — one window's references fed to
  :class:`TRGBuilder` one by one (the twin of
  :func:`~repro.adaptive.windows.window_trg`);
* :func:`scalar_popularity` — Phase 0 popularity by one loop over the
  edge dict (the twin of the column reduction behind
  :meth:`~repro.profiling.profile_data.Profile.popularity`; the affinity
  twin is :func:`repro.profiling.trg.entity_affinity`);
* :class:`ScalarPlacer` — a :class:`CCDPPlacer` whose Phase 2 and
  Phase 6 run on :class:`CacheImage`, :func:`conflict_cost_scan` and
  :class:`CompoundMerger`;
* :func:`scalar_fix_placed` and :func:`scalar_drift_score` — the
  adaptive engine's live spans fixed entity by entity (the twins of
  :meth:`~repro.core.placement_engine.ArrayPlacementEngine.fix_placed`
  and the engine's drift score).

pytest does not collect this module (no ``test_`` prefix); tests import
it as ``tests.oracles``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.paging import PageTracker, PagingSummary
from repro.cache.config import CacheConfig
from repro.cache.simulator import CacheSimulator
from repro.core.algorithm import CCDPPlacer
from repro.core.cache_struct import (
    CacheImage,
    active_chunks_by_entity,
    build_adjacency,
    conflict_cost_scan,
)
from repro.core.compound import CompoundMerger, CompoundNode
from repro.core.placement_engine import FIXED, ArrayPlacementEngine
from repro.memory.layout import TEXT_BASE
from repro.memory.static_layout import layout_sequential
from repro.naming.xor import DEFAULT_NAME_DEPTH
from repro.profiling.profile_data import STACK_ENTITY_ID, Profile
from repro.profiling.profiler import ProfilerSink
from repro.profiling.trg import DEFAULT_CHUNK_SIZE, TRGBuilder, entity_affinity
from repro.runtime.driver import MeasureResult
from repro.runtime.replay import ReplaySink
from repro.trace.buffer import TraceRecorder
from repro.trace.events import Category


def scalar_measure(
    workload,
    input_name: str,
    resolver,
    config: CacheConfig | None = None,
    classify: bool = False,
    track_pages: bool = False,
) -> MeasureResult:
    """Simulate one live run event by event: the reference ``measure``."""
    cache = CacheSimulator(config, classify=classify)
    pages = PageTracker() if track_pages else None
    workload.run(ReplaySink(resolver, cache, pages), input_name)
    paging = PagingSummary.from_tracker(pages) if pages else None
    return MeasureResult(cache=cache.stats, paging=paging)


def scalar_profile(workload, input_name: str, **profiler_kwargs) -> Profile:
    """Profile one live run event by event: the reference profiler."""
    sink = ProfilerSink(**profiler_kwargs)
    workload.run(sink, input_name)
    return sink.profile


def scalar_window_profile(
    trace: TraceRecorder,
    end_event: int,
    cache_config: CacheConfig | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_depth: int = DEFAULT_NAME_DEPTH,
    queue_threshold: int | None = None,
) -> Profile:
    """Profile a run truncated after ``end_event`` accesses, event by event.

    Lifetime ops at or before the cut are interleaved at their recorded
    positions; later ones are dropped.
    """
    sink = ProfilerSink(
        cache_config=cache_config,
        chunk_size=chunk_size,
        name_depth=name_depth,
        queue_threshold=queue_threshold,
    )
    obj, offset, size, _cat, _store = trace.columns()
    end = min(max(0, end_event), len(obj))
    accesses = list(zip(obj[:end].tolist(), offset[:end].tolist(), size[:end].tolist()))
    position = 0
    for op_position, kind, payload in trace.lifetime_ops:
        if op_position > end:
            break
        while position < op_position:
            sink.on_access(*accesses[position], False, None)
            position += 1
        TraceRecorder._replay_op(sink, kind, payload)
    while position < end:
        sink.on_access(*accesses[position], False, None)
        position += 1
    sink.on_end()
    return sink.profile


def scalar_window_trg(eids, chunks, entry_bytes, queue_threshold) -> TRGBuilder:
    """A fresh :class:`TRGBuilder` fed one window reference by reference.

    ``entry_bytes`` is indexed by entity, as in ``window_trg``.
    """
    builder = TRGBuilder(queue_threshold)
    for eid, chunk in zip(eids.tolist(), chunks.tolist()):
        builder.observe(eid, chunk, int(entry_bytes[eid]))
    return builder


def scalar_popularity(profile: Profile) -> dict[int, int]:
    """Per-entity sums of incident edge weights, one loop over the dict.

    Every entity in entity order is a key, then any edge endpoint the
    profile does not declare, in order of first appearance.
    """
    totals = {eid: 0 for eid in profile.entities}
    for ((eid_a, _ca), (eid_b, _cb)), weight in profile.trg.items():
        totals[eid_a] = totals.get(eid_a, 0) + weight
        if eid_b != eid_a:
            totals[eid_b] = totals.get(eid_b, 0) + weight
    return totals


def assert_same_profile(batched: Profile, scalar: Profile) -> None:
    """Field-by-field profile equality, dict insertion orders included.

    Downstream tie-breaking iterates the TRG and entity dicts, so their
    order is part of the contract; the batched side's popularity and
    affinity (column reductions) are checked against the dict loops over
    the scalar side's edges.
    """
    assert list(batched.trg.items()) == list(scalar.trg.items())
    assert batched.total_accesses == scalar.total_accesses
    assert list(batched.alloc_adjacency.items()) == list(
        scalar.alloc_adjacency.items()
    )
    assert list(batched.entities.items()) == list(scalar.entities.items())
    assert (batched.chunk_size, batched.queue_threshold, batched.name_depth) == (
        scalar.chunk_size,
        scalar.queue_threshold,
        scalar.name_depth,
    )
    assert list(batched.popularity().items()) == list(
        scalar_popularity(scalar).items()
    )
    assert list(batched.entity_affinity().items()) == list(
        entity_affinity(scalar.trg).items()
    )


class ScalarPlacer(CCDPPlacer):
    """The placer with the dict-based Figure 2 scans in Phases 2 and 6.

    Prices only the classic direct-mapped conflict cost, so a
    non-trivial cost model is rejected.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.cost_model is not None and not self.cost_model.is_trivial:
            raise ValueError("the reference placer prices only the direct cost")

    def _place_stack_and_constants(self) -> int:
        profile = self.profile
        config = self.config
        active = active_chunks_by_entity(profile)
        self._active_chunks = active
        self._adjacency = build_adjacency(profile)

        image = CacheImage(config, profile.chunk_size)
        constants = profile.entities_of(Category.CONST)
        addresses = layout_sequential(
            [(e.key, e.size) for e in sorted(constants, key=lambda e: e.decl_index)],
            TEXT_BASE,
        )
        for entity in constants:
            image.add_entity(
                entity.eid,
                entity.size,
                addresses[entity.key] % config.size,
                active.get(entity.eid, (0,)),
            )

        stack = profile.entities[STACK_ENTITY_ID]
        stack_chunks = active.get(stack.eid, (0,))
        moving = CacheImage(config, profile.chunk_size)
        moving.add_entity(stack.eid, max(stack.size, 1), 0, stack_chunks)
        start_line, _cost = conflict_cost_scan(
            image.pairs, moving.pairs, self._adjacency, config.num_sets
        )
        stack_offset = start_line * config.line_size
        image.add_entity(stack.eid, max(stack.size, 1), stack_offset, stack_chunks)
        self._stack_const = image
        return stack_offset

    def _make_merger(self, nodes: dict[int, CompoundNode]) -> CompoundMerger:
        self._merger = CompoundMerger(
            self.config,
            self.profile.chunk_size,
            self._stack_const,
            self._adjacency,
            self._entity_sizes(),
            self._active_chunks,
        )
        return self._merger

    def _conflict_scans(self) -> int:
        return 1 + self._merger.scan_count


def scalar_fix_placed(engine, entity_base, entity_size) -> None:
    """Fix each placed entity's pairs with one span fill per entity.

    The per-entity twin of ``ArrayPlacementEngine.fix_placed`` (same
    arguments, with the engine first).
    """
    cache_size = engine.config.size
    for eid in np.unique(engine.index.pair_eid).tolist():
        base = int(entity_base[eid])
        if base < 0:
            continue
        engine.set_entity_span(eid, base % cache_size, int(entity_size[eid]))
        engine.set_owner(engine.index.pair_ids(eid), FIXED)


def scalar_drift_score(index, config, chunk_size, entity_base, entity_size) -> float:
    """The adaptive drift score with the per-entity span fill.

    Same arguments as ``repro.adaptive.engine._drift_score``.
    """
    total = index.total_weight()
    if total <= 0:
        return 0.0
    engine = ArrayPlacementEngine(index, config, chunk_size)
    scalar_fix_placed(engine, entity_base, entity_size)
    return engine.total_conflict_cost() / total
