"""Incremental re-placement: refit only the drift-dirty entities.

A full :class:`~repro.core.algorithm.CCDPPlacer` run re-derives the
popular split, rebuilds compound nodes, and re-runs the whole Phase 6
merge loop.  Mid-stream that is wasted work: most entities are exactly
where the last placement put them and the window TRG says they conflict
with nothing.  The delta path instead:

1. seeds an :class:`~repro.core.placement_engine.ArrayPlacementEngine`
   over the sliding-window :class:`~repro.core.cache_struct.TRGIndex`
   with every entity *fixed at its live cache offset* (the addresses the
   measured stream actually used);
2. marks as *dirty* the movable entities with nonzero incident conflict
   cost under the window TRG — everything else keeps its placement,
   compound structure included, with no re-merge;
3. refits the dirty entities in descending window-popularity order with
   Figure 2 scans against the fixed remainder
   (:meth:`~repro.core.placement_engine.ArrayPlacementEngine.refit`);
4. re-runs only Phase 7 (:func:`~repro.core.global_order.order_globals`)
   and the Phase 8 base/table arithmetic to turn the refreshed cache
   offsets back into a complete :class:`~repro.core.PlacementMap`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache.config import CacheConfig
from ..core.cache_struct import TRGIndex
from ..core.global_order import LayoutAtom, order_globals
from ..core.placement_engine import ArrayPlacementEngine
from ..core.placement_map import HeapDecision, PlacementMap
from ..memory.layout import DATA_BASE, STACK_BASE
from ..profiling.profile_data import Profile, STACK_ENTITY_ID
from ..profiling.trg import entity_affinity
from ..trace.events import Category

#: Categories the delta path may move; constants live in the text segment.
_MOVABLE = (Category.GLOBAL, Category.STACK, Category.HEAP)


@dataclass
class ReplaceResult:
    """One incremental re-placement step."""

    placement: PlacementMap
    dirty_entities: int
    scan_cost: int


def _entity_weights(index: TRGIndex, num_eids: int) -> np.ndarray:
    """Incident TRG weight per entity (the window popularity signal)."""
    counts = np.diff(index.indptr)
    pair_weight = np.zeros(index.num_pairs, dtype=np.int64)
    np.add.at(
        pair_weight,
        np.repeat(np.arange(index.num_pairs, dtype=np.int64), counts),
        index.wt,
    )
    return np.bincount(
        index.pair_eid, weights=pair_weight, minlength=num_eids
    ).astype(np.int64)


def delta_replace(
    profile: Profile,
    index: TRGIndex,
    config: CacheConfig,
    chunk_size: int,
    entity_base: np.ndarray,
    entity_size: np.ndarray,
    old_placement: PlacementMap,
    place_heap: bool,
) -> ReplaceResult:
    """Refit drift-dirty entities and rebuild the placement map.

    Args:
        profile: Full-trace entity universe (sizes, categories, keys).
        index: The sliding-window TRG index.
        config: Target cache geometry.
        chunk_size: TRG chunk granularity.
        entity_base: Live base address per entity id (< 0 if the entity
            has not been referenced yet).
        entity_size: Placement size (``max(size, 1)``) per entity id.
        old_placement: The placement currently being measured; clean
            entities and unmatched heap names carry over from it.
        place_heap: Whether heap decisions are emitted at all.
    """
    cache_size = config.size
    num_eids = max(profile.entities) + 1

    engine = ArrayPlacementEngine(index, config, chunk_size)
    engine.fix_placed(entity_base, entity_size)
    placed = np.flatnonzero(entity_base >= 0).tolist()

    pair_costs = engine.pair_conflict_costs()
    eid_costs = np.bincount(
        index.pair_eid, weights=pair_costs, minlength=num_eids
    )
    weights = _entity_weights(index, num_eids)

    dirty = [
        eid
        for eid in placed
        if eid_costs[eid] > 0
        and profile.entities[eid].category in _MOVABLE
        and (place_heap or profile.entities[eid].category is not Category.HEAP)
    ]
    dirty.sort(key=lambda eid: (-int(weights[eid]), eid))
    fits = engine.refit(dirty, entity_size)
    scan_cost = sum(cost for _offset, cost in fits.values())

    # Final cache offset per referenced entity: refit result for dirty,
    # the live offset for everything else.
    offset_of = {
        eid: fits[eid][0] if eid in fits else int(entity_base[eid]) % cache_size
        for eid in placed
    }

    popularity = {eid: int(weights[eid]) for eid in profile.entities}
    affinity = entity_affinity(index.edges)

    atoms: list[LayoutAtom] = []
    unpopular: list[tuple[int, int, int]] = []
    for entity in profile.entities_of(Category.GLOBAL):
        eid = entity.eid
        preferred = offset_of.get(eid)
        if preferred is None:
            old = old_placement.global_cache_offset(entity.key.split(":", 1)[1])
            preferred = old
        if preferred is not None and popularity.get(eid, 0) > 0:
            atoms.append(
                LayoutAtom(
                    members={eid: 0},
                    preferred_offset=preferred % cache_size,
                    size=entity.size,
                )
            )
        else:
            unpopular.append((eid, entity.size, entity.refs))
    layout = order_globals(
        atoms,
        unpopular,
        popularity,
        affinity,
        cache_size,
        {eid: entity.size for eid, entity in profile.entities.items()},
    )

    placement = PlacementMap(cache_config=config)
    placement.data_base = DATA_BASE + (
        (layout.base_cache_offset - DATA_BASE) % cache_size
    )
    for eid, segment_offset in layout.offsets.items():
        symbol = profile.entities[eid].key.split(":", 1)[1]
        placement.global_offsets[symbol] = segment_offset

    if STACK_ENTITY_ID in fits:
        stack_offset = fits[STACK_ENTITY_ID][0]
        placement.stack_base = STACK_BASE + (
            (stack_offset - STACK_BASE) % cache_size
        )
    else:
        placement.stack_base = old_placement.stack_base

    placement.heap_table = dict(old_placement.heap_table)
    if place_heap:
        for eid, (offset, _cost) in fits.items():
            entity = profile.entities[eid]
            if entity.category is Category.HEAP and entity.heap_name is not None:
                old = old_placement.heap_table.get(entity.heap_name)
                placement.heap_table[entity.heap_name] = HeapDecision(
                    bin_tag=old.bin_tag if old is not None else None,
                    preferred_offset=offset % cache_size,
                )
    placement.name_depth = old_placement.name_depth

    return ReplaceResult(
        placement=placement, dirty_entities=len(dirty), scan_cost=scan_cost
    )
