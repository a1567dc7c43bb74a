"""Property tests of the incremental TRGIndex update API.

The contract: any sequence of :meth:`TRGIndex.apply_edge_deltas` calls
leaves the index bit-identical — same CSR arrays, same row content
order — to an index built from scratch over a reference edge dict that
received the same deltas.  The reference applies deltas with plain dict
ops (set while positive, delete at zero), so insertion-order semantics
are pinned too: the CSR row content order depends on edge insertion
order, and the incremental path must preserve it exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.cache_struct import TRGIndex
from repro.profiling.profile_data import Profile, edge_columns

ENTITIES = [1, 2, 3, 5, 8]

pairs = st.tuples(st.sampled_from(ENTITIES), st.integers(0, 3))
edge_keys = st.tuples(pairs, pairs).map(
    lambda pair: pair if pair[0] <= pair[1] else (pair[1], pair[0])
)
edge_dicts = st.dictionaries(edge_keys, st.integers(1, 50), max_size=12)
delta_batches = st.lists(
    st.dictionaries(edge_keys, st.integers(-50, 50), max_size=8),
    max_size=6,
)


def apply_reference(edges: dict, deltas: dict) -> None:
    """The plain-dict semantics the incremental index must match."""
    for key, delta in deltas.items():
        new_weight = edges.get(key, 0) + delta
        if new_weight > 0:
            edges[key] = new_weight
        elif key in edges:
            del edges[key]


def assert_identical(index: TRGIndex, reference: TRGIndex) -> None:
    assert index.num_pairs == reference.num_pairs
    np.testing.assert_array_equal(index.indptr, reference.indptr)
    np.testing.assert_array_equal(index.nbr, reference.nbr)
    np.testing.assert_array_equal(index.wt, reference.wt)
    np.testing.assert_array_equal(index.pair_eid, reference.pair_eid)
    np.testing.assert_array_equal(index.pair_chunk, reference.pair_chunk)


@given(initial=edge_dicts, batches=delta_batches)
@settings(max_examples=120, deadline=None)
def test_incremental_matches_rebuild(initial, batches):
    index = TRGIndex.from_edges(dict(initial), ENTITIES)
    reference_edges = dict(initial)
    for deltas in batches:
        index.apply_edge_deltas(deltas)
        apply_reference(reference_edges, deltas)
        assert_identical(index, TRGIndex.from_edges(dict(reference_edges), ENTITIES))
    assert index.edges == reference_edges
    assert index.total_weight() == sum(reference_edges.values())


@given(initial=edge_dicts, scale=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_weight_only_updates_stay_in_place(initial, scale):
    """Deltas that touch only existing edges never trigger a rebuild."""
    index = TRGIndex.from_edges(dict(initial), ENTITIES)
    deltas = {key: scale for key in initial}
    index.apply_edge_deltas(deltas)
    assert index.rebuilds == 0
    assert index.inplace_updates == len(initial)
    expected = {key: weight + scale for key, weight in initial.items()}
    assert_identical(index, TRGIndex.from_edges(dict(expected), ENTITIES))


@given(initial=edge_dicts)
@settings(max_examples=60, deadline=None)
def test_structural_deltas_rebuild(initial):
    """Adding a brand-new edge goes through the rebuild path once."""
    index = TRGIndex.from_edges(dict(initial), ENTITIES)
    new_key = ((max(ENTITIES), 7), (max(ENTITIES), 9))
    assert new_key not in initial
    index.apply_edge_deltas({new_key: 3})
    assert index.rebuilds == 1
    expected = dict(initial)
    expected[new_key] = 3
    assert_identical(index, TRGIndex.from_edges(expected, ENTITIES))


def test_retire_to_zero_removes_edge():
    key = ((1, 0), (2, 0))
    index = TRGIndex.from_edges({key: 5, ((2, 0), (3, 1)): 2}, ENTITIES)
    index.apply_edge_deltas({key: -5})
    assert key not in index.edges
    assert index.rebuilds == 1
    assert_identical(index, TRGIndex.from_edges({((2, 0), (3, 1)): 2}, ENTITIES))


def test_empty_and_cancelling_deltas_are_noops():
    initial = {((1, 0), (2, 0)): 5}
    index = TRGIndex.from_edges(dict(initial), ENTITIES)
    index.apply_edge_deltas({})
    assert index.inplace_updates == 0 and index.rebuilds == 0
    index.apply_edge_deltas({((1, 0), (2, 0)): 0})
    assert index.rebuilds == 0
    assert index.edges == initial


def test_from_edges_matches_profile_construction():
    """from_edges over a profile's TRG equals TRGIndex(profile)."""
    from repro.cache.config import CacheConfig
    from repro.profiling.batch import profile_trace
    from repro.trace.buffer import record_trace
    from repro.workloads.drift import stationary

    trace = record_trace(stationary(iterations=600), "train")
    profile = profile_trace(trace, cache_config=CacheConfig())
    from_profile = TRGIndex(profile)
    rebuilt = TRGIndex.from_edges(profile.trg, list(profile.entities))
    assert_identical(from_profile, rebuilt)


def test_copy_on_write_leaves_profile_edges_untouched():
    """An index seeded from a profile must not mutate profile.trg.

    Checked for a profile holding a dict and for one holding columns.
    """
    initial = {((1, 0), (2, 0)): 5}
    for columns in (False, True):
        profile = Profile(entities={eid: None for eid in ENTITIES})
        if columns:
            profile.trg_columns = edge_columns(initial)
        else:
            profile.trg = dict(initial)
        index = TRGIndex(profile)
        index.apply_edge_deltas({((1, 0), (2, 0)): 3})
        assert profile.trg == initial
        assert index.edges == {((1, 0), (2, 0)): 8}
