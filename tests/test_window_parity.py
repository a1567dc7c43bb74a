"""Window parity: the adaptive engine's window kernels == per-event oracles.

:func:`~repro.adaptive.windows.window_trg` and
:func:`~repro.adaptive.windows.window_profile` run the batched profiler's
kernels (:mod:`repro.profiling.batch`).  These tests pin both to the
per-event twins in :mod:`tests.oracles`: a fresh
:class:`TRGBuilder` fed one reference at a time, and
a :class:`ProfilerSink` replay of a recording
truncated at the cut.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import build_entity_map, window_profile, window_trg
from repro.cache.config import CacheConfig
from repro.profiling import batch
from repro.profiling.batch import profile_trace, trg_edges
from repro.profiling.profile_data import edge_dict
from repro.profiling.trg import DEFAULT_CHUNK_SIZE, QUEUE_THRESHOLD_CACHE_MULTIPLE
from repro.trace.buffer import record_trace
from repro.workloads import make_workload
from repro.workloads.drift import drift_workload, drift_workload_names
from tests.oracles import (
    TRGBuilder,
    assert_same_profile,
    scalar_window_profile,
    scalar_window_trg,
)

CONFIG = CacheConfig()
THRESHOLD = QUEUE_THRESHOLD_CACHE_MULTIPLE * CONFIG.size


@pytest.fixture(scope="module")
def drift_traces():
    return {
        name: record_trace(drift_workload(name), "test")
        for name in drift_workload_names()
    }


@pytest.fixture(scope="module")
def deltablue_trace():
    workload = make_workload("deltablue")
    return record_trace(workload, workload.train_input)


@pytest.mark.parametrize("threshold", [THRESHOLD, 1024])
@pytest.mark.parametrize("window", [512, 2048])
def test_window_trg_matches_builder_on_every_drift_window(
    drift_traces, window, threshold
):
    """Items and insertion order, window by window, as the engine cuts them."""
    for trace in drift_traces.values():
        _profile, eid_map, entry_bytes = build_entity_map(trace)
        obj, offset, *_rest = trace.columns()
        for start in range(0, trace.events, window):
            eids = eid_map[obj[start : start + window]]
            chunks = offset[start : start + window] // DEFAULT_CHUNK_SIZE
            batched = window_trg(eids, chunks, entry_bytes, threshold)
            scalar = scalar_window_trg(eids, chunks, entry_bytes, threshold)
            assert list(batched.items()) == list(scalar.edges.items())


@given(
    refs=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=0, max_size=300
    ),
    sizes=st.lists(st.integers(0, 400), min_size=6, max_size=6),
    threshold=st.integers(1, 1024),
)
@settings(max_examples=200, deadline=None)
def test_trg_pass_matches_builder_on_random_streams(refs, sizes, threshold):
    """Repeated keys, mixed entry sizes and a threshold small enough to evict."""
    eids = np.array([eid for eid, _chunk in refs], dtype=np.int64)
    chunks = np.array([chunk for _eid, chunk in refs], dtype=np.int64)
    entry_bytes = np.array(
        [size if size and size < 256 else 256 for size in sizes], dtype=np.int64
    )
    scalar = scalar_window_trg(eids, chunks, entry_bytes, threshold)
    batched = trg_edges(eids, chunks, entry_bytes[eids], threshold)
    assert list(edge_dict(batched.columns).items()) == list(scalar.edges.items())
    assert batched.evictions == scalar.evictions
    assert list(window_trg(eids, chunks, entry_bytes, threshold).items()) == list(
        scalar.edges.items()
    )


@given(
    refs=st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 3),
            st.sampled_from([1, 8, 64, 200, 256]),
        ),
        min_size=0,
        max_size=300,
    ),
    threshold=st.integers(1, 2048),
    scan_chunk=st.sampled_from([1, 7]),
    sparse=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_trg_pass_matches_builder_with_per_reference_entries(
    refs, threshold, scan_chunk, sparse
):
    """Entries that shrink between two references of a key, and tiny queues.

    Entity sizes only grow in the paper traces, so their queue entries
    never shrink; here every reference draws its own entry size, the
    threshold may hold less than one entry, the walk is scanned a few
    positions at a time, and the edge fold may take the sparse path.
    """
    eids = np.array([eid for eid, _chunk, _entry in refs], dtype=np.int64)
    chunks = np.array([chunk for _eid, chunk, _entry in refs], dtype=np.int64)
    entries = np.array([entry for _eid, _chunk, entry in refs], dtype=np.int64)
    builder = TRGBuilder(threshold)
    for eid, chunk, entry in refs:
        builder.observe(eid, chunk, entry)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "SCAN_CHUNK", scan_chunk)
        if sparse:
            patch.setattr(batch, "_DENSE_PAIRS", 0)
        result = trg_edges(eids, chunks, entries, threshold)
    assert list(edge_dict(result.columns).items()) == list(builder.edges.items())
    assert result.evictions == builder.evictions


def _cuts(trace) -> list[int]:
    """0, 1, the middle lifetime op's position, mid-trace and the end."""
    ops = trace.lifetime_ops
    op_position = ops[len(ops) // 2][0]
    return [0, 1, op_position, trace.events // 2, trace.events]


@pytest.mark.parametrize("source", ["phase-change", "deltablue"])
def test_window_profile_matches_truncated_live_profile(
    source, drift_traces, deltablue_trace
):
    trace = deltablue_trace if source == "deltablue" else drift_traces[source]
    for cut in _cuts(trace):
        assert_same_profile(
            window_profile(trace, cut, CONFIG),
            scalar_window_profile(trace, cut, CONFIG),
        )
    # Cut at the end, the window is the whole-trace profile.
    assert_same_profile(
        window_profile(trace, trace.events, CONFIG), profile_trace(trace, CONFIG)
    )
