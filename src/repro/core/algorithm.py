"""The CCDP placement algorithm: Phases 0-8 of the paper's Figure 1.

::

    PHASE 0: split objects into popular and unpopular sets
    PHASE 1: preprocess the heap objects and assign bin tags
    PHASE 2: place stack in relation to constant objects
    PHASE 3: make popular objects into compound nodes
    PHASE 4: create TRGselect edges between compound nodes
    PHASE 5: place small objects together for cache line reuse
    PHASE 6: place global and heap objects to minimize conflict
             (merge the max-weight TRGselect edge until none remain)
    PHASE 7: place global variables emphasizing cache line reuse
    PHASE 8: write the placement map

One implementation note: we run Phase 5 (small-global packing) immediately
after Phase 3 and derive TRGselect (Phase 4) afterwards, so that packed
groups participate in the merge loop as single compound nodes with their
edges already coalesced.  This is equivalent to the paper's ordering —
Phase 5 only fuses nodes and sums their edges — and avoids re-coalescing.

The Phase 2 and Phase 6 conflict scans run on the vectorized
:class:`~repro.core.placement_engine.ArrayPlacementEngine`.  The
dict-based reference path (:class:`~repro.core.compound.CompoundMerger`
over :func:`~repro.core.cache_struct.conflict_cost_scan`) makes the same
decisions; the placement parity suites drive it as a test oracle.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..cache.config import CacheConfig
from ..obs import telemetry as obs
from ..memory.layout import DATA_BASE, STACK_BASE, TEXT_BASE
from ..memory.static_layout import layout_sequential
from ..profiling.profile_data import Profile, STACK_ENTITY_ID
from ..trace.events import Category
from .cache_struct import TRGIndex
from .compound import CompoundNode
from .cost_model import ConflictCostModel
from .placement_engine import FIXED, ArrayCompoundMerger, ArrayPlacementEngine
from .global_order import GlobalLayout, LayoutAtom, order_globals
from .heap_prep import (
    DEFAULT_LOCALITY_THRESHOLD,
    DEFAULT_MAX_BINS,
    HeapPrepResult,
    preprocess_heap_objects,
)
from .placement_map import HeapDecision, PlacementMap, PlacementStats

#: Phase 0 cumulative-popularity cutoff: "All objects that account for up
#: to 99% of the total popularity of all objects are considered popular."
DEFAULT_POPULARITY_CUTOFF = 0.99


class CCDPPlacer:
    """Run the full placement pipeline over one training profile.

    Args:
        profile: A profiling run's output (:func:`~repro.profiling.profile_trace`).
        cache_config: Target cache geometry (the paper stresses choosing
            the smallest geometry you want to perform well on).
        popularity_cutoff: Phase 0 cumulative share, default 0.99.
        place_heap: When False, skip heap placement entirely — the paper
            applies heap placement only to deltablue, espresso, groff and
            gcc, leaving the other programs with zero run-time overhead.
        locality_threshold: Phase 1 binning evidence threshold.
        max_bins: Phase 1 bin-count cap.
        cost_model: Optional :class:`~repro.core.cost_model.\
ConflictCostModel` refining the Phase 2/6 conflict scans —
            associativity-gated set collisions and/or per-entity
            two-level penalties.  ``None`` (or a trivial model) keeps
            the classic direct-mapped cost.
    """

    def __init__(
        self,
        profile: Profile,
        cache_config: CacheConfig | None = None,
        popularity_cutoff: float = DEFAULT_POPULARITY_CUTOFF,
        place_heap: bool = True,
        locality_threshold: int = DEFAULT_LOCALITY_THRESHOLD,
        max_bins: int = DEFAULT_MAX_BINS,
        cost_model: ConflictCostModel | None = None,
    ):
        self.profile = profile
        self.config = cache_config or CacheConfig()
        self.popularity_cutoff = popularity_cutoff
        self.place_heap = place_heap
        self.locality_threshold = locality_threshold
        self.max_bins = max_bins
        self.cost_model = cost_model
        self.stats = PlacementStats()

    # -- public entry point --------------------------------------------------

    def place(self) -> PlacementMap:
        """Execute Phases 0-8 and return the placement map.

        Each phase runs under a telemetry span (``place.phase0`` ..
        ``place.phase8``); the legacy ``PlacementStats.place_seconds`` /
        ``merge_loop_seconds`` fields are derived from the span tree.
        When no registry is installed a private one is used, so the
        timing fields work standalone too.
        """
        registry = obs.current()
        if registry is None:
            with obs.use(obs.Telemetry()) as registry:
                return self._place(registry)
        return self._place(registry)

    def _place(self, registry: obs.Telemetry) -> PlacementMap:
        profile = self.profile
        with registry.span("place") as place_span:
            with registry.span("place.prep"):
                # The entity-level affinity collapse of TRGplace feeds
                # Phases 1, 4, 5 and 7; derive it once per run (served
                # precomputed when the profile came from the batched
                # profiler).
                self._affinity = profile.entity_affinity()
                popularity = profile.popularity()
            with registry.span("place.phase0"):
                popular = self._split_popular_unpopular(popularity)
            with registry.span("place.phase1"):
                heap_prep = self._preprocess_heap(popular)
            with registry.span("place.phase2"):
                stack_offset = self._place_stack_and_constants()
            with registry.span("place.phase3"):
                nodes, node_of_entity = self._create_compound_nodes(
                    popular, heap_prep
                )
            # Phase 5 runs before Phase 4 here; see the module docstring.
            with registry.span("place.phase5"):
                packed_groups = self._pack_small_globals(
                    popular, nodes, node_of_entity
                )
            with registry.span("place.phase4"):
                select_edges = self._create_trgselect(node_of_entity)
            with registry.span("place.phase6") as merge_span:
                self._merge_loop(nodes, node_of_entity, select_edges)
            with registry.span("place.phase7"):
                layout = self._final_global_layout(
                    popular, nodes, node_of_entity, packed_groups, popularity
                )
            with registry.span("place.phase8"):
                placement = self._write_placement_map(
                    layout, stack_offset, heap_prep, nodes, node_of_entity
                )
        self.stats.merge_loop_seconds = merge_span.seconds
        self.stats.place_seconds = place_span.seconds
        obs.count("place.conflict_scans", self._conflict_scans())
        return placement

    def _conflict_scans(self) -> int:
        """Figure 2 conflict scans of this run (Phase 2 and Phase 6)."""
        return self._array_engine.scan_count

    # -- PHASE 0 ---------------------------------------------------------------

    def _split_popular_unpopular(self, popularity: dict[int, int]) -> set[int]:
        """Cumulative 99% split over TRG popularity."""
        total = sum(popularity.values())
        popular: set[int] = set()
        if total <= 0:
            return popular
        threshold = self.popularity_cutoff * total
        accumulated = 0
        for eid, weight in sorted(
            popularity.items(), key=lambda item: item[1], reverse=True
        ):
            if weight <= 0 or accumulated >= threshold:
                break
            popular.add(eid)
            accumulated += weight
        self.stats.popular_entities = len(popular)
        self.stats.unpopular_entities = len(self.profile.entities) - len(popular)
        return popular

    # -- PHASE 1 ---------------------------------------------------------------

    def _preprocess_heap(self, popular: set[int]) -> HeapPrepResult:
        if not self.place_heap:
            # Remove heap entities from placement consideration entirely.
            for entity in self.profile.entities_of(Category.HEAP):
                popular.discard(entity.eid)
            return HeapPrepResult()
        result = preprocess_heap_objects(
            self.profile,
            popular,
            locality_threshold=self.locality_threshold,
            max_bins=self.max_bins,
            affinity=self._affinity,
        )
        self.stats.heap_bins = result.bin_count
        self.stats.collided_heap_names = len(result.demoted_entities)
        return result

    # -- PHASE 2 ---------------------------------------------------------------

    def _place_stack_and_constants(self) -> int:
        """Fix constants at their text addresses, then place the stack.

        Builds the run's :class:`TRGIndex` + :class:`ArrayPlacementEngine`,
        registers constants at their text addresses as :data:`FIXED`,
        then scans the stack against them; returns the stack's cache
        offset.
        """
        profile = self.profile
        config = self.config
        index = TRGIndex.for_profile(profile)
        engine = ArrayPlacementEngine(
            index, config, profile.chunk_size, cost_model=self.cost_model
        )
        self._array_engine = engine

        constants = profile.entities_of(Category.CONST)
        addresses = layout_sequential(
            [(e.key, e.size) for e in sorted(constants, key=lambda e: e.decl_index)],
            TEXT_BASE,
        )
        const_pairs = [
            index.pair_ids(entity.eid) for entity in constants
        ]
        for entity in constants:
            engine.set_entity_span(
                entity.eid, addresses[entity.key] % config.size, entity.size
            )
        if const_pairs:
            engine.set_owner(np.concatenate(const_pairs), FIXED)

        stack = profile.entities[STACK_ENTITY_ID]
        stack_pairs = index.pair_ids(stack.eid)
        engine.set_entity_span(stack.eid, 0, max(stack.size, 1))
        start_line, _cost = engine.scan(stack_pairs, None, preferred_start=0)
        stack_offset = start_line * config.line_size
        engine.set_entity_span(stack.eid, stack_offset, max(stack.size, 1))
        engine.set_owner(stack_pairs, FIXED)
        return stack_offset

    # -- PHASE 3 ---------------------------------------------------------------

    def _create_compound_nodes(
        self, popular: set[int], heap_prep: HeapPrepResult
    ) -> tuple[dict[int, CompoundNode], dict[int, int]]:
        """One single-entity compound node per placeable popular object."""
        nodes: dict[int, CompoundNode] = {}
        node_of_entity: dict[int, int] = {}
        next_node = 0
        placeable_heap = set(heap_prep.placeable_heap_entities)
        for eid in sorted(popular):
            entity = self.profile.entities[eid]
            if entity.category is Category.GLOBAL:
                placeable = True
            elif entity.category is Category.HEAP:
                placeable = self.place_heap and eid in placeable_heap
            else:
                placeable = False
            if not placeable:
                continue
            nodes[next_node] = CompoundNode(node_id=next_node, offsets={eid: 0})
            node_of_entity[eid] = next_node
            next_node += 1
        return nodes, node_of_entity

    # -- PHASE 5 ---------------------------------------------------------------

    def _pack_small_globals(
        self,
        popular: set[int],
        nodes: dict[int, CompoundNode],
        node_of_entity: dict[int, int],
    ) -> list[dict[int, int]]:
        """Pack small, temporally related popular globals into one line.

        Greedy over descending entity affinity: fuse the two entities'
        compound nodes whenever the combined extent still fits a cache
        line.  Fused nodes' relative offsets become the packed layout.
        """
        line_size = self.config.line_size
        small = {
            eid
            for eid in popular
            if (
                self.profile.entities[eid].category is Category.GLOBAL
                and self.profile.entities[eid].size < line_size
                and eid in node_of_entity
            )
        }
        if len(small) < 2:
            return []
        affinity = self._affinity
        candidates = sorted(
            (
                (weight, pair)
                for pair, weight in affinity.items()
                if pair[0] in small and pair[1] in small and weight > 0
            ),
            key=lambda item: item[0],
            reverse=True,
        )
        packed_nodes: set[int] = set()
        for _weight, (eid_a, eid_b) in candidates:
            nid_a = node_of_entity[eid_a]
            nid_b = node_of_entity[eid_b]
            if nid_a == nid_b:
                continue
            node_a, node_b = nodes[nid_a], nodes[nid_b]
            extent_a = self._node_extent(node_a)
            extent_b = self._node_extent(node_b)
            if extent_a + extent_b > line_size:
                continue
            for eid, rel in node_b.offsets.items():
                node_a.offsets[eid] = self._align_small(extent_a) + rel
                node_of_entity[eid] = nid_a
            del nodes[nid_b]
            packed_nodes.discard(nid_b)
            packed_nodes.add(nid_a)
        groups = [dict(nodes[nid].offsets) for nid in sorted(packed_nodes)]
        self.stats.packed_small_globals = sum(len(g) for g in groups)
        return groups

    def _node_extent(self, node: CompoundNode) -> int:
        return max(
            (off + self.profile.entities[eid].size for eid, off in node.offsets.items()),
            default=0,
        )

    @staticmethod
    def _align_small(cursor: int) -> int:
        """Alignment for intra-line packing: 4 bytes keeps lines dense."""
        return (cursor + 3) // 4 * 4

    # -- PHASE 4 ---------------------------------------------------------------

    def _create_trgselect(
        self, node_of_entity: dict[int, int]
    ) -> dict[tuple[int, int], int]:
        """Entity affinity coalesced onto compound-node pairs."""
        edges: dict[tuple[int, int], int] = {}
        for (eid_a, eid_b), weight in self._affinity.items():
            nid_a = node_of_entity.get(eid_a)
            nid_b = node_of_entity.get(eid_b)
            if nid_a is None or nid_b is None or nid_a == nid_b:
                continue
            pair = (nid_a, nid_b) if nid_a <= nid_b else (nid_b, nid_a)
            edges[pair] = edges.get(pair, 0) + weight
        return edges

    # -- PHASE 6 ---------------------------------------------------------------

    def _entity_sizes(self) -> dict[int, int]:
        """Placement sizes per entity id (zero-size entities take a byte)."""
        return {eid: max(e.size, 1) for eid, e in self.profile.entities.items()}

    def _make_merger(self, nodes: dict[int, CompoundNode]) -> ArrayCompoundMerger:
        """The Phase 6 merger over the Phase 2 span arrays."""
        return ArrayCompoundMerger(self._array_engine, self._entity_sizes(), nodes)

    def _merge_loop(
        self,
        nodes: dict[int, CompoundNode],
        node_of_entity: dict[int, int],
        select_edges: dict[tuple[int, int], int],
    ) -> None:
        """Merge compound nodes in descending TRGselect-weight order."""
        merger = self._make_merger(nodes)
        heap: list[tuple[int, int, int]] = [
            (-weight, nid_a, nid_b) for (nid_a, nid_b), weight in select_edges.items()
        ]
        heapq.heapify(heap)
        # Per-node incidence index over the live TRGselect edges, so that
        # absorbing a node re-keys only its own edges (O(deg)) rather than
        # rescanning every edge in select_edges.
        incident: dict[int, set[tuple[int, int]]] = {}
        for edge in select_edges:
            incident.setdefault(edge[0], set()).add(edge)
            incident.setdefault(edge[1], set()).add(edge)
        alias: dict[int, int] = {}
        iterations = 0
        stale_skips = 0

        def resolve(nid: int) -> int:
            while nid in alias:
                nid = alias[nid]
            return nid

        while heap:
            iterations += 1
            neg_weight, nid_a, nid_b = heapq.heappop(heap)
            nid_a, nid_b = resolve(nid_a), resolve(nid_b)
            if nid_a == nid_b:
                stale_skips += 1
                continue
            pair = (nid_a, nid_b) if nid_a <= nid_b else (nid_b, nid_a)
            if select_edges.get(pair) != -neg_weight:
                stale_skips += 1
                continue  # stale heap entry
            del select_edges[pair]
            keeper, absorbed = pair
            incident.get(keeper, set()).discard(pair)
            incident.get(absorbed, set()).discard(pair)
            node1, node2 = nodes[keeper], nodes[absorbed]
            cost = merger.merge(node1, node2)
            self.stats.total_conflict_cost += cost
            alias[absorbed] = keeper
            del nodes[absorbed]
            for eid in list(node1.offsets):
                node_of_entity[eid] = keeper
            # Coalesce edges incident to the absorbed node.  The sums are
            # order-independent and every pushed entry carries the edge's
            # weight at push time, so iteration order cannot change which
            # merges become effective (see tests/test_merge_loop.py).
            for other_pair in incident.pop(absorbed, ()):
                weight = select_edges.pop(other_pair)
                third = other_pair[0] if other_pair[1] == absorbed else other_pair[1]
                incident.get(third, set()).discard(other_pair)
                third = resolve(third)
                if third == keeper:
                    continue
                new_pair = (keeper, third) if keeper <= third else (third, keeper)
                new_weight = select_edges.get(new_pair, 0) + weight
                select_edges[new_pair] = new_weight
                incident.setdefault(keeper, set()).add(new_pair)
                incident.setdefault(third, set()).add(new_pair)
                heapq.heappush(heap, (-new_weight, new_pair[0], new_pair[1]))
        # Anchor any never-merged nodes against Stack_Const so every
        # popular entity ends up with a concrete preferred offset.
        for node in nodes.values():
            if not node.anchored:
                self.stats.total_conflict_cost += merger.anchor(node)
        self.stats.merges = merger.merge_count
        self.stats.anchors = merger.anchor_count
        obs.count("place.merge_loop.iterations", iterations)
        obs.count("place.merge_loop.stale_skips", stale_skips)
        obs.count("place.merges", merger.merge_count)
        obs.count("place.anchors", merger.anchor_count)

    # -- PHASE 7 ---------------------------------------------------------------

    def _final_global_layout(
        self,
        popular: set[int],
        nodes: dict[int, CompoundNode],
        node_of_entity: dict[int, int],
        packed_groups: list[dict[int, int]],
        popularity: dict[int, int],
    ) -> GlobalLayout:
        profile = self.profile
        cache_size = self.config.size
        entity_sizes = {eid: e.size for eid, e in profile.entities.items()}

        def entity_cache_offset(eid: int) -> int:
            node = nodes[node_of_entity[eid]]
            return node.offsets[eid] % cache_size

        atoms: list[LayoutAtom] = []
        grouped: set[int] = set()
        for group in packed_groups:
            members = {eid: rel for eid, rel in group.items()}
            origin_eid = min(members, key=members.get)
            preferred = (
                entity_cache_offset(origin_eid) - members[origin_eid]
            ) % cache_size
            size = max(
                rel + entity_sizes[eid] for eid, rel in members.items()
            )
            atoms.append(LayoutAtom(members=members, preferred_offset=preferred, size=size))
            grouped.update(members)

        unpopular: list[tuple[int, int, int]] = []
        for entity in profile.entities_of(Category.GLOBAL):
            if entity.eid in grouped:
                continue
            if entity.eid in popular and entity.eid in node_of_entity:
                atoms.append(
                    LayoutAtom(
                        members={entity.eid: 0},
                        preferred_offset=entity_cache_offset(entity.eid),
                        size=entity.size,
                    )
                )
            else:
                unpopular.append((entity.eid, entity.size, entity.refs))

        return order_globals(
            atoms,
            unpopular,
            popularity,
            self._affinity,
            cache_size,
            entity_sizes,
        )

    # -- PHASE 8 ---------------------------------------------------------------

    def _write_placement_map(
        self,
        layout: GlobalLayout,
        stack_offset: int,
        heap_prep: HeapPrepResult,
        nodes: dict[int, CompoundNode],
        node_of_entity: dict[int, int],
    ) -> PlacementMap:
        profile = self.profile
        cache_size = self.config.size
        placement = PlacementMap(cache_config=self.config, stats=self.stats)

        placement.data_base = DATA_BASE + (
            (layout.base_cache_offset - DATA_BASE) % cache_size
        )
        for eid, segment_offset in layout.offsets.items():
            symbol = profile.entities[eid].key.split(":", 1)[1]
            placement.global_offsets[symbol] = segment_offset

        placement.stack_base = STACK_BASE + ((stack_offset - STACK_BASE) % cache_size)

        if self.place_heap:
            for entity in profile.entities_of(Category.HEAP):
                name = entity.heap_name
                bin_tag = heap_prep.bin_of_name.get(name)
                preferred = None
                nid = node_of_entity.get(entity.eid)
                if nid is not None and nid in nodes and entity.eid in nodes[nid].offsets:
                    preferred = nodes[nid].offsets[entity.eid] % cache_size
                if bin_tag is not None or preferred is not None:
                    placement.heap_table[name] = HeapDecision(
                        bin_tag=bin_tag, preferred_offset=preferred
                    )
            placement.name_depth = profile.name_depth
        return placement
