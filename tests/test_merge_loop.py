"""Phase 6 regression: incidence-set coalescing vs the O(E) rescan.

The merge loop used to re-key TRGselect edges after each absorption by
rescanning every live edge (``[p for p in select_edges if absorbed in
p]``).  It now maintains a per-node incidence set and touches only the
absorbed node's own edges.  This suite replays the *old* loop (embedded
here as the reference) next to the production one on a randomized
profile with well over 100 compound nodes and asserts that the merge
order, the conflict costs, and every final entity offset are unchanged,
on both the array placer and the dict-based :class:`tests.oracles.ScalarPlacer`.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.cache.config import CacheConfig
from repro.core.algorithm import CCDPPlacer
from repro.profiling.profile_data import Entity, Profile
from repro.trace.events import Category
from tests.oracles import ScalarPlacer

CONFIG = CacheConfig(4096, 32, 1)
NUM_GLOBALS = 140


def big_profile(seed: int = 7, num_globals: int = NUM_GLOBALS) -> Profile:
    """A synthetic profile whose Phase 3 yields >100 compound nodes."""
    rng = random.Random(seed)
    profile = Profile(chunk_size=256, queue_threshold=2 * CONFIG.size)
    profile.entities[0] = Entity(0, Category.STACK, "stack", size=512, refs=50)
    for i in range(num_globals):
        eid = i + 1
        profile.entities[eid] = Entity(
            eid,
            Category.GLOBAL,
            f"g:v{i}",
            size=rng.choice((8, 24, 64, 200, 400)),
            refs=rng.randrange(1, 40),
            decl_index=i,
        )
    for _ in range(6 * num_globals):
        a = rng.randrange(0, num_globals + 1)
        b = rng.randrange(0, num_globals + 1)
        if a == b:
            continue
        pair_a, pair_b = (a, 0), (b, 0)
        key = (pair_a, pair_b) if pair_a <= pair_b else (pair_b, pair_a)
        profile.trg[key] = profile.trg.get(key, 0) + rng.randrange(1, 60)
    return profile


def run_phases_through_trgselect(profile: Profile, placer_class):
    """Drive Phases 0-5 and return the Phase 6 inputs plus the placer."""
    placer = placer_class(profile, CONFIG, place_heap=False)
    placer._affinity = profile.entity_affinity()
    popular = placer._split_popular_unpopular(profile.popularity())
    heap_prep = placer._preprocess_heap(popular)
    placer._place_stack_and_constants()
    nodes, node_of_entity = placer._create_compound_nodes(popular, heap_prep)
    placer._pack_small_globals(popular, nodes, node_of_entity)
    select_edges = placer._create_trgselect(node_of_entity)
    return placer, nodes, node_of_entity, select_edges


def reference_merge_loop(placer, nodes, node_of_entity, select_edges):
    """The pre-incidence-index Phase 6 loop, verbatim, recording merges."""
    merger = placer._make_merger(nodes)
    merge_order: list[tuple[int, int, int]] = []
    heap = [
        (-weight, nid_a, nid_b)
        for (nid_a, nid_b), weight in select_edges.items()
    ]
    heapq.heapify(heap)
    alias: dict[int, int] = {}

    def resolve(nid: int) -> int:
        while nid in alias:
            nid = alias[nid]
        return nid

    while heap:
        neg_weight, nid_a, nid_b = heapq.heappop(heap)
        nid_a, nid_b = resolve(nid_a), resolve(nid_b)
        if nid_a == nid_b:
            continue
        pair = (nid_a, nid_b) if nid_a <= nid_b else (nid_b, nid_a)
        if select_edges.get(pair) != -neg_weight:
            continue
        del select_edges[pair]
        node1, node2 = nodes[pair[0]], nodes[pair[1]]
        cost = merger.merge(node1, node2)
        merge_order.append((pair[0], pair[1], cost))
        alias[pair[1]] = pair[0]
        del nodes[pair[1]]
        for eid in list(node1.offsets):
            node_of_entity[eid] = pair[0]
        for other_pair in [p for p in select_edges if pair[1] in p]:
            weight = select_edges.pop(other_pair)
            third = other_pair[0] if other_pair[1] == pair[1] else other_pair[1]
            third = resolve(third)
            if third == pair[0]:
                continue
            new_pair = (pair[0], third) if pair[0] <= third else (third, pair[0])
            new_weight = select_edges.get(new_pair, 0) + weight
            select_edges[new_pair] = new_weight
            heapq.heappush(heap, (-new_weight, new_pair[0], new_pair[1]))
    for node in nodes.values():
        if not node.anchored:
            merger.anchor(node)
    return merge_order, merger


@pytest.mark.parametrize(
    "placer_class", (ScalarPlacer, CCDPPlacer), ids=("scalar", "array")
)
@pytest.mark.parametrize("seed", (7, 19))
def test_incidence_coalescing_preserves_merge_order(placer_class, seed, monkeypatch):
    profile_new = big_profile(seed)
    profile_ref = big_profile(seed)

    new = run_phases_through_trgselect(profile_new, placer_class)
    ref = run_phases_through_trgselect(profile_ref, placer_class)
    placer_new, nodes_new, node_of_new, edges_new = new
    assert len(nodes_new) > 100  # the regression target: a big merge loop

    # Record the production loop's merge order by wrapping the merger.
    recorded: list[tuple[int, int, int]] = []
    original_make = placer_class._make_merger

    def recording_make(self, nodes):
        merger = original_make(self, nodes)
        original_merge = merger.merge

        def merge(node1, node2):
            cost = original_merge(node1, node2)
            recorded.append((node1.node_id, node2.node_id, cost))
            return cost

        merger.merge = merge
        return merger

    monkeypatch.setattr(placer_class, "_make_merger", recording_make)
    placer_new._merge_loop(nodes_new, node_of_new, edges_new)
    monkeypatch.setattr(placer_class, "_make_merger", original_make)

    placer_ref, nodes_ref, node_of_ref, edges_ref = ref
    ref_order, _merger = reference_merge_loop(
        placer_ref, nodes_ref, node_of_ref, edges_ref
    )

    assert recorded == ref_order
    assert len(recorded) > 0
    assert node_of_new == node_of_ref
    assert set(nodes_new) == set(nodes_ref)
    for nid, node in nodes_new.items():
        assert node.offsets == nodes_ref[nid].offsets
