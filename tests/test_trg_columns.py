"""TRG columns: one form from the profiler through the store to placement.

A profile from the batched profiler or the artifact store holds its TRG
as five int64 columns, and :attr:`Profile.trg` builds the edge dict on
first read.  These tests pin that the column path compiles the same
placement index and places the same way as a dict-backed profile, that
pickling keeps the columns, and that neither a warm table run nor the
index and placement of a decoded profile builds the dict.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.core.algorithm import CCDPPlacer
from repro.core.cache_struct import TRGIndex
from repro.experiments import clear_cache, run_table2
from repro.experiments.common import cached_trace
from repro.profiling import profile_data
from repro.profiling.batch import profile_trace
from repro.profiling.profile_data import Profile, edge_columns, edge_dict
from repro.profiling.serialize import (
    placement_to_dict,
    profile_from_payload,
    profile_to_payload,
)
from repro.store import ArtifactStore, use_store
from repro.profiling.trg import entity_affinity
from repro.workloads import make_workload
from tests.oracles import scalar_popularity

CONFIG = CacheConfig()
INDEX_ARRAYS = ("indptr", "nbr", "wt", "pair_eid", "pair_chunk")


def _no_conversion(*_args):
    raise AssertionError("the TRG changed form")


def _forbid_conversions(patch) -> None:
    """Fail any dict <-> column conversion of a profile's TRG."""
    patch.setattr(profile_data, "edge_dict", _no_conversion)
    patch.setattr(profile_data, "edge_columns", _no_conversion)


@pytest.fixture(scope="module", params=["compress", "go", "deltablue"])
def trained(request):
    """(workload, training profile, its store payload)."""
    workload = make_workload(request.param)
    trace = cached_trace(request.param, workload.train_input)
    profile = profile_trace(trace, cache_config=CONFIG)
    return workload, profile, profile_to_payload(profile)


def _placement_json(profile, workload) -> str:
    placer = CCDPPlacer(profile, CONFIG, place_heap=workload.place_heap)
    return json.dumps(placement_to_dict(placer.place()))


def test_decoded_columns_index_and_place_like_the_dict(trained):
    workload, profile, payload = trained
    reference = profile_from_payload(payload)
    reference.trg = dict(profile.trg)
    decoded = profile_from_payload(payload)
    with pytest.MonkeyPatch.context() as patch:
        _forbid_conversions(patch)
        index = TRGIndex.for_profile(decoded)
        placement = _placement_json(decoded, workload)
    expected = TRGIndex.for_profile(reference)
    for name in INDEX_ARRAYS:
        np.testing.assert_array_equal(getattr(index, name), getattr(expected, name))
    assert placement == _placement_json(reference, workload)
    assert list(decoded.popularity().items()) == list(reference.popularity().items())
    assert list(decoded.entity_affinity().items()) == list(
        reference.entity_affinity().items()
    )
    assert list(decoded.trg.items()) == list(profile.trg.items())


def test_pickled_profile_keeps_its_columns(trained, monkeypatch):
    _workload, _profile, payload = trained
    decoded = profile_from_payload(payload)
    _forbid_conversions(monkeypatch)
    restored = pickle.loads(pickle.dumps(decoded))
    for got, want in zip(restored.trg_columns, decoded.trg_columns):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


pairs = st.tuples(st.integers(-2, 6), st.integers(0, 3))


@given(
    edges=st.dictionaries(st.tuples(pairs, pairs), st.integers(1, 50), max_size=20),
    declared=st.lists(st.integers(0, 6), unique=True, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_column_reductions_match_the_dict_loops(edges, declared):
    """Undeclared or negative endpoints, either key order, self-loops."""
    assert list(edge_dict(edge_columns(edges)).items()) == list(edges.items())
    profile = Profile(entities=dict.fromkeys(declared))
    profile.trg_columns = edge_columns(edges)
    popularity, affinity = profile.popularity(), profile.entity_affinity()
    assert list(popularity.items()) == list(scalar_popularity(profile).items())
    assert list(affinity.items()) == list(entity_affinity(profile.trg).items())


def test_trg_read_makes_the_dict_the_source():
    """After a read, in-place edits reach the columns and the reductions."""
    profile = Profile(entities={1: None, 2: None, 3: None})
    profile.trg_columns = edge_columns({((1, 0), (2, 0)): 5})
    profile.trg[((2, 0), (3, 1))] = 4
    profile.invalidate_derived()
    columns = profile.trg_columns
    assert columns.b_chunk.tolist() == [0, 1]
    assert columns.weight.tolist() == [5, 4]
    assert profile.popularity() == {1: 5, 2: 9, 3: 4}
    assert profile.entity_affinity() == {(1, 2): 5, (2, 3): 4}


def test_warm_table_run_never_builds_the_edge_dict(tmp_path, monkeypatch):
    """A warm Table 2 decodes every profile but reads no ``trg``.

    A conversion that failed inside the warm probe would be swallowed as
    a bad entry and recomputed, so the store's tallies must show a pure
    warm run.
    """
    root = tmp_path / "store"
    clear_cache()
    try:
        with use_store(ArtifactStore(root)):
            cold = run_table2(["compress"]).render()
        clear_cache()
        monkeypatch.setattr(profile_data, "edge_dict", _no_conversion)
        warm_store = ArtifactStore(root)
        with use_store(warm_store):
            warm = run_table2(["compress"]).render()
    finally:
        clear_cache()
    assert warm == cold
    counters = warm_store.counters
    assert counters.hits > 0
    assert (counters.misses, counters.writes, counters.corrupt) == (0, 0, 0)
