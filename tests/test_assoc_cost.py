"""Associativity-aware conflict cost: parity and brute-force checks.

Two pins protect the gated scan
(:meth:`~repro.core.placement_engine.ArrayPlacementEngine._gated_cost_vector`):

* **ways=1 parity** — with a single way the occupancy gate is provably
  always open, so the gated cost vector must equal the classic
  direct-mapped trapezoid bit for bit, and a placer handed a trivial
  model must reproduce the default placement exactly.
* **brute force** — on small set counts an O(S * edges * span^2) python
  reference recomputes the gated cost per candidate start from first
  principles (circular span intersection + occupancy counting); the
  vectorized grid/fold implementation must match it exactly for any
  hypothesis-drawn edge set, span layout, and way count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheConfig
from repro.core.algorithm import CCDPPlacer
from repro.core.cache_struct import TRGIndex
from repro.core.cost_model import (
    COST_MODEL_NAMES,
    GATED_SCAN_MAX_SETS,
    ConflictCostModel,
    resolve_cost_model,
)
from repro.core.placement_engine import FIXED, UNPLACED, ArrayPlacementEngine
from repro.runtime.driver import profile_workload
from repro.workloads.synthetic import aliased_hot_set

SETS = 8
LINE = 32
CHUNK = 256
ENTITIES = [1, 2, 3]
MOVING_EID = 1


def config_for(ways: int) -> CacheConfig:
    """A geometry with exactly ``SETS`` sets at the given way count."""
    return CacheConfig(size=SETS * LINE * ways, line_size=LINE, associativity=ways)


# -- hypothesis-drawn engine states -------------------------------------------

_pair = st.tuples(st.sampled_from(ENTITIES), st.integers(0, 2))
_edge_key = st.tuples(_pair, _pair).map(
    lambda pair: pair if pair[0] <= pair[1] else (pair[1], pair[0])
)
edge_dicts = st.dictionaries(_edge_key, st.integers(1, 9), min_size=1, max_size=10)


def build_engines(data, edges, *engine_models):
    """Identical engines (one per model) over one drawn span/owner state."""
    index = TRGIndex.from_edges(dict(edges), ENTITIES)
    n = index.num_pairs
    starts = [data.draw(st.integers(0, SETS - 1)) for _ in range(n)]
    lengths = [data.draw(st.integers(1, SETS)) for _ in range(n)]
    owners = []
    for p in range(n):
        if int(index.pair_eid[p]) == MOVING_EID:
            owners.append(UNPLACED)
        else:
            owners.append(FIXED if data.draw(st.booleans()) else UNPLACED)
    engines = []
    for model in engine_models:
        ways = model.ways if model is not None else 1
        engine = ArrayPlacementEngine(
            index, config_for(max(ways, 1)), CHUNK, cost_model=model
        )
        engine.start_line[:] = starts
        engine.span_len[:] = lengths
        engine.owner[:] = owners
        engines.append(engine)
    moving = index.pair_ids(MOVING_EID)
    return engines, moving


def masked_edges(engine, moving):
    """The (moving pair, fixed neighbour, weight) edges a scan charges."""
    index = engine.index
    out = []
    for p in moving:
        for k in range(int(index.indptr[p]), int(index.indptr[p + 1])):
            n = int(index.nbr[k])
            if engine.owner[n] == FIXED:
                out.append((int(p), n, int(index.wt[k])))
    return out


def span_sets(engine, pair: int, shift: int = 0) -> set[int]:
    """The sets a pair's (possibly shifted) circular span covers."""
    start = int(engine.start_line[pair]) + shift
    length = min(int(engine.span_len[pair]), SETS)
    return {(start + j) % SETS for j in range(length)}


def brute_force_cost(engine, moving, ways: int, gate: bool = True) -> np.ndarray:
    """First-principles gated cost per candidate start."""
    edges = masked_edges(engine, moving)
    fixed_pairs = np.flatnonzero(engine.owner == FIXED)
    coverage_f = np.zeros(SETS, dtype=np.int64)
    for q in fixed_pairs:
        for t in span_sets(engine, int(q)):
            coverage_f[t] += 1
    coverage_m = np.zeros(SETS, dtype=np.int64)
    for q in moving:
        for t in span_sets(engine, int(q)):
            coverage_m[t] += 1
    cost = np.zeros(SETS, dtype=np.int64)
    for s in range(SETS):
        total = 0
        for p, n, w in edges:
            shared = span_sets(engine, n) & span_sets(engine, p, shift=s)
            for t in shared:
                if not gate or (
                    coverage_f[t] + coverage_m[(t - s) % SETS] > ways
                ):
                    total += w
        cost[s] = total
    return cost


def engine_cost_vector(engine, moving) -> np.ndarray:
    """The cost vector scan() would rank, via the engine's own path."""
    edges = masked_edges(engine, moving)
    if not edges:
        return np.zeros(SETS, dtype=np.int64)
    src = np.array([p for p, _n, _w in edges], dtype=np.int64)
    nbrs = np.array([n for _p, n, _w in edges], dtype=np.int64)
    weights = np.array([w for _p, _n, w in edges], dtype=np.int64)
    if engine._gated:
        return engine._gated_cost_vector(moving, src, nbrs, weights, None)
    return engine._trapezoid_cost_vector(src, nbrs, weights)


class TestGatedBruteForce:
    @given(data=st.data(), edges=edge_dicts, ways=st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_gated_cost_matches_brute_force(self, data, edges, ways):
        (engine,), moving = build_engines(
            data, edges, ConflictCostModel(ways=ways)
        )
        assert engine._gated
        np.testing.assert_array_equal(
            engine_cost_vector(engine, moving),
            brute_force_cost(engine, moving, ways),
        )

    @given(data=st.data(), edges=edge_dicts)
    @settings(max_examples=60, deadline=None)
    def test_ways1_gated_equals_trapezoid_and_brute_force(self, data, edges):
        (classic, gated), moving = build_engines(
            data, edges, None, ConflictCostModel(ways=2)
        )
        # Force the gated code path at ways=1: the occupancy gate must
        # then be provably open everywhere, reproducing the classic scan.
        object.__setattr__(gated.cost_model, "ways", 1)
        assert gated._gated
        classic_cost = engine_cost_vector(classic, moving)
        gated_cost = engine_cost_vector(gated, moving)
        np.testing.assert_array_equal(gated_cost, classic_cost)
        np.testing.assert_array_equal(
            gated_cost, brute_force_cost(gated, moving, ways=1)
        )
        np.testing.assert_array_equal(
            gated_cost, brute_force_cost(gated, moving, ways=1, gate=False)
        )

    @given(
        data=st.data(),
        edges=edge_dicts,
        preferred=st.integers(0, SETS - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_scan_decision_parity_at_ways1(self, data, edges, preferred):
        (classic, gated), moving = build_engines(
            data, edges, None, ConflictCostModel(ways=2)
        )
        object.__setattr__(gated.cost_model, "ways", 1)
        assert classic.scan(moving, None, preferred) == gated.scan(
            moving, None, preferred
        )

    def test_overlong_spans_clamp_to_full_coverage(self):
        edges = {((1, 0), (2, 0)): 5}
        index = TRGIndex.from_edges(edges, ENTITIES)
        model = ConflictCostModel(ways=2)
        full = ArrayPlacementEngine(index, config_for(2), CHUNK, cost_model=model)
        over = ArrayPlacementEngine(index, config_for(2), CHUNK, cost_model=model)
        for engine, length in ((full, SETS), (over, SETS + 3)):
            engine.span_len[:] = length
            engine.owner[:] = [
                UNPLACED if int(index.pair_eid[p]) == MOVING_EID else FIXED
                for p in range(index.num_pairs)
            ]
        moving = index.pair_ids(MOVING_EID)
        np.testing.assert_array_equal(
            engine_cost_vector(full, moving), engine_cost_vector(over, moving)
        )


class TestCostModel:
    def test_ways_must_be_positive(self):
        with pytest.raises(ValueError):
            ConflictCostModel(ways=0)

    def test_penalties_must_be_positive(self):
        with pytest.raises(ValueError):
            ConflictCostModel(entity_penalties={3: 0})

    def test_trivial(self):
        assert ConflictCostModel().is_trivial
        assert ConflictCostModel(ways=1).is_trivial
        assert not ConflictCostModel(ways=2).is_trivial
        assert not ConflictCostModel(entity_penalties={1: 4}).is_trivial

    def test_resolve_direct_is_none(self):
        assert resolve_cost_model("direct", config_for(2)) is None

    def test_resolve_assoc_takes_geometry_ways(self):
        model = resolve_cost_model("assoc", config_for(4))
        assert model.ways == 4
        assert model.entity_penalties is None

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown cost model"):
            resolve_cost_model("quantum", config_for(2))
        assert "direct" in COST_MODEL_NAMES

    def test_large_geometry_falls_back_to_classic(self):
        sets = 2 * GATED_SCAN_MAX_SETS
        config = CacheConfig(size=sets * LINE * 2, line_size=LINE, associativity=2)
        index = TRGIndex.from_edges({((1, 0), (2, 0)): 1}, ENTITIES)
        engine = ArrayPlacementEngine(
            index, config, CHUNK, cost_model=ConflictCostModel(ways=2)
        )
        assert not engine._gated


class TestPlacerIntegration:
    def test_trivial_model_reproduces_default_placement(self):
        workload = aliased_hot_set()
        config = config_for(1)
        profile = profile_workload(workload, workload.train_input, config)
        baseline = CCDPPlacer(profile, cache_config=config).place()
        pinned = CCDPPlacer(
            profile,
            cache_config=config,
            cost_model=ConflictCostModel(ways=1),
        ).place()
        assert baseline.global_offsets == pinned.global_offsets
        assert baseline.heap_table == pinned.heap_table
        assert baseline.stack_base == pinned.stack_base

    def test_assoc_model_can_change_the_placement(self):
        workload = aliased_hot_set()
        config = config_for(2)
        profile = profile_workload(workload, workload.train_input, config)
        baseline = CCDPPlacer(profile, cache_config=config).place()
        gated = CCDPPlacer(
            profile,
            cache_config=config,
            cost_model=ConflictCostModel(ways=2),
        ).place()
        # Not required to differ for every program, but the scan must
        # still produce a structurally valid placement either way.
        assert set(gated.global_offsets) == set(baseline.global_offsets)


class TestTwoLevelPenalties:
    def test_penalties_price_every_entity_at_least_l2(self):
        from repro.cache.hierarchy import L2_TIME, entity_l2_penalties
        from repro.runtime.driver import record_trace

        workload = aliased_hot_set()
        trace = record_trace(workload, workload.train_input)
        penalties = entity_l2_penalties(trace)
        assert penalties
        base = round(L2_TIME)
        for eid, penalty in penalties.items():
            assert isinstance(penalty, int)
            assert penalty >= base, (eid, penalty)

    def test_two_level_resolution_builds_penalties_from_trace(self):
        from repro.runtime.driver import record_trace

        workload = aliased_hot_set()
        trace = record_trace(workload, workload.train_input)
        model = resolve_cost_model("two-level", config_for(2), trace)
        assert model.ways == 2
        assert model.entity_penalties
