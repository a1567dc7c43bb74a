"""Unit tests for compound nodes and the Phase 6 merge (Figure 2)."""

from __future__ import annotations

import pytest

from repro.cache.config import CacheConfig
from repro.core.cache_struct import CacheImage, TRGIndex, chunk_line_span
from repro.core.compound import CompoundMerger, CompoundNode
from repro.core.placement_engine import (
    FIXED,
    ArrayCompoundMerger,
    ArrayPlacementEngine,
)
from repro.profiling.profile_data import Entity, Profile
from repro.trace.events import Category

CONFIG = CacheConfig(1024, 32, 1)  # 32 lines


def make_merger(
    stack_const_pairs=None,
    adjacency=None,
    sizes=None,
    active=None,
) -> CompoundMerger:
    image = CacheImage(CONFIG, 256)
    if stack_const_pairs:
        image.pairs.update(stack_const_pairs)
    return CompoundMerger(
        CONFIG,
        256,
        image,
        adjacency or {},
        sizes or {1: 256, 2: 256, 3: 256},
        active or {1: (0,), 2: (0,), 3: (0,)},
    )


class TestAnchor:
    def test_anchor_avoids_stack_const_conflict(self):
        # Stack occupies lines 0-7; entity 1 has a heavy edge to it.
        merger = make_merger(
            stack_const_pairs={(0, 0): tuple(range(8))},
            adjacency={(1, 0): [((0, 0), 50)], (0, 0): [((1, 0), 50)]},
        )
        node = CompoundNode(node_id=0, offsets={1: 0})
        cost = merger.anchor(node)
        assert cost == 0
        assert node.anchored
        line = (node.offsets[1] // 32) % 32
        assert line not in range(8)

    def test_anchor_without_edges_costs_nothing(self):
        merger = make_merger()
        node = CompoundNode(node_id=0, offsets={1: 0})
        assert merger.anchor(node) == 0
        assert merger.anchor_count == 1


class TestMerge:
    def test_merge_separates_conflicting_entities(self):
        adjacency = {
            (1, 0): [((2, 0), 100)],
            (2, 0): [((1, 0), 100)],
        }
        merger = make_merger(adjacency=adjacency)
        node1 = CompoundNode(node_id=0, offsets={1: 0})
        node2 = CompoundNode(node_id=1, offsets={2: 0})
        cost = merger.merge(node1, node2)
        assert cost == 0
        lines1 = set(range(node1.offsets[1] // 32, node1.offsets[1] // 32 + 8))
        lines2_start = (node1.offsets[2] // 32) % 32
        assert lines2_start % 32 not in {line % 32 for line in lines1}

    def test_merge_absorbs_entities(self):
        merger = make_merger()
        node1 = CompoundNode(node_id=0, offsets={1: 0})
        node2 = CompoundNode(node_id=1, offsets={2: 0, 3: 256})
        merger.merge(node1, node2)
        assert set(node1.offsets) == {1, 2, 3}
        assert not node2.offsets
        assert merger.merge_count == 1

    def test_merge_preserves_node2_relative_layout(self):
        merger = make_merger()
        node1 = CompoundNode(node_id=0, offsets={1: 0})
        node2 = CompoundNode(node_id=1, offsets={2: 0, 3: 256})
        merger.merge(node1, node2)
        assert node1.offsets[3] - node1.offsets[2] == 256

    def test_merge_anchors_node1_first(self):
        # node1 has a conflict with the fixed stack image; merging must
        # first move node1 away from it.
        merger = make_merger(
            stack_const_pairs={(0, 0): (0,)},
            adjacency={(1, 0): [((0, 0), 9)], (0, 0): [((1, 0), 9)]},
        )
        node1 = CompoundNode(node_id=0, offsets={1: 0})
        node2 = CompoundNode(node_id=1, offsets={2: 0})
        merger.merge(node1, node2)
        assert node1.anchored
        assert (node1.offsets[1] // 32) % 32 != 0

    def test_merge_cost_counts_unavoidable_conflicts(self):
        # Fixed image fills every line with an edge-heavy pair.
        full = {(9, c): tuple(range(32)) for c in range(1)}
        adjacency = {
            (2, 0): [((9, 0), 4)],
            (9, 0): [((2, 0), 4)],
        }
        merger = make_merger(stack_const_pairs=full, adjacency=adjacency)
        node1 = CompoundNode(node_id=0, offsets={1: 0})
        node2 = CompoundNode(node_id=1, offsets={2: 0})
        cost = merger.merge(node1, node2)
        assert cost == 4 * 8  # chunk of 256B covers 8 lines, all conflicting

    def test_initial_scan_point_past_node_extent(self):
        merger = make_merger(sizes={1: 128, 2: 256, 3: 256})
        node = CompoundNode(node_id=0, offsets={1: 64})
        assert merger._initial_scan_point(node) == 6  # (64+128)/32


def build_merger(merger_class, node_offsets, trg=None, sizes=None, fixed=None):
    """Build equivalent mergers of either class over the same state.

    Args:
        merger_class: :class:`CompoundMerger` (the dict-based reference)
            or :class:`ArrayCompoundMerger` (what the placer runs).
        node_offsets: node id -> {entity id -> relative byte offset}.
        trg: ((eid, chunk), (eid, chunk)) -> weight edges.
        sizes: entity id -> placement size (node entities).
        fixed: entity id -> (cache_offset, size) spans owned by the
            ``Stack_Const`` image.
    """
    trg = trg or {}
    sizes = sizes or {1: 256, 2: 256, 3: 256}
    fixed = fixed or {}
    nodes = {
        nid: CompoundNode(node_id=nid, offsets=dict(offs))
        for nid, offs in node_offsets.items()
    }
    if merger_class is ArrayCompoundMerger:
        profile = Profile(chunk_size=256)
        every = dict(sizes)
        every.update({eid: size for eid, (_off, size) in fixed.items()})
        for eid, size in sorted(every.items()):
            profile.entities[eid] = Entity(
                eid, Category.GLOBAL, f"g:{eid}", size=size
            )
        profile.trg = dict(trg)
        engine = ArrayPlacementEngine(TRGIndex(profile), CONFIG, 256)
        for eid, (offset, size) in fixed.items():
            engine.set_entity_span(eid, offset, size)
            engine.set_owner(engine.index.pair_ids(eid), FIXED)
        return ArrayCompoundMerger(engine, dict(sizes), nodes), nodes
    adjacency: dict = {}
    for (pair_a, pair_b), weight in trg.items():
        adjacency.setdefault(pair_a, []).append((pair_b, weight))
        if pair_a != pair_b:
            adjacency.setdefault(pair_b, []).append((pair_a, weight))
    image = CacheImage(CONFIG, 256)
    for eid, (offset, size) in fixed.items():
        for chunk in range(-(-size // 256)):
            image.pairs[(eid, chunk)] = chunk_line_span(
                offset, size, chunk, 256, CONFIG
            )
    merger = CompoundMerger(
        CONFIG,
        256,
        image,
        adjacency,
        dict(sizes),
        {eid: (0,) for eid in sizes},
    )
    return merger, nodes


@pytest.mark.parametrize(
    "merger_class", (CompoundMerger, ArrayCompoundMerger), ids=("scalar", "array")
)
class TestFigure2TieBreaking:
    """Satellite: anchor/merge start-point and strict-improvement rules."""

    def test_zero_cost_anchor_stays_at_preferred_line_zero(self, merger_class):
        # No edges: every start costs 0.  Strict improvement ("<", never
        # "<=") keeps the preferred start, so the node must not move.
        merger, nodes = build_merger(merger_class, {0: {1: 64}})
        assert merger.anchor(nodes[0]) == 0
        assert nodes[0].offsets == {1: 64}
        assert nodes[0].anchored

    def test_zero_cost_merge_packs_densely(self, merger_class):
        # Figure 2's intelligent initial start point: with no conflicts,
        # node2 lands exactly past node1's extent, not back at line 0.
        merger, nodes = build_merger(merger_class, {0: {1: 0}, 1: {2: 0}})
        assert merger.merge(nodes[0], nodes[1]) == 0
        assert nodes[0].offsets == {1: 0, 2: 256}  # 8 lines x 32B
        assert not nodes[1].offsets

    def test_all_equal_costs_keep_preferred_start(self, merger_class):
        # A fixed entity covering all 32 lines conflicts with entity 2
        # at every one of the 32 candidate starts.  With nothing to
        # improve on, the scan keeps the dense-packing start.
        merger, nodes = build_merger(
            merger_class,
            {0: {1: 0}, 1: {2: 0}},
            trg={((2, 0), (9, chunk)): 4 for chunk in range(4)},
            fixed={9: (0, 1024)},
        )
        cost = merger.merge(nodes[0], nodes[1])
        assert cost == 4 * 8  # every moving line conflicts at weight 4
        assert nodes[0].offsets[2] == 256

    def test_first_zero_cost_start_in_scan_order_wins(self, merger_class):
        # node1 occupies lines 0-7, so the scan starts at line 8.  The
        # fixed image conflicts with entity 2 on lines 8-10; the first
        # zero-cost start in scan order is line 11 and ties later in the
        # scan (12, 13, ...) must not displace it.
        merger, nodes = build_merger(
            merger_class,
            {0: {1: 0}, 1: {2: 0}},
            trg={((2, 0), (9, 0)): 7},
            sizes={1: 256, 2: 32},
            fixed={9: (256, 96)},
        )
        assert merger.merge(nodes[0], nodes[1]) == 0
        assert nodes[0].offsets[2] == 11 * 32
