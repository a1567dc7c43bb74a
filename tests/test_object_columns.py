"""Per-object counters: int columns from the kernels through the store.

The per-object fields of ``CacheStats`` and ``WorkloadStats`` hold the
``(ids, values)`` columns the kernels emit until a caller reads them;
the read builds the dict (:func:`repro.trace.stats.object_dict`, the one
conversion), which is the counter from then on.  These tests pin that
neither a warm nor a cold table run builds a dict, that decoded entries
keep their columns and read back in the computed order, and that an
in-place edit after a read reaches every consumer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.experiments import (
    clear_cache,
    run_random_vs_natural,
    run_table1,
    run_table2,
    run_table4,
)
from repro.obs.invariants import InvariantError, check_workload_stats
from repro.runtime.driver import MeasureResult, collect_stats, measure_trace
from repro.runtime.resolvers import NaturalResolver
from repro.store import ArtifactStore, use_store
from repro.store.artifacts import (
    cache_stats_to_dict,
    measure_result_from_payload,
    measure_result_to_payload,
    workload_stats_from_payload,
    workload_stats_to_dict,
    workload_stats_to_payload,
)
from repro.trace import stats as trace_stats
from repro.trace.buffer import record_trace
from repro.trace.stats import ObjectColumns
from tests.oracles import CacheSimulator, ReplaySink

CACHE_FIELDS = ("accesses_by_object", "misses_by_object")
STATS_FIELDS = ("refs_by_object", "object_sizes", "object_categories")


@pytest.fixture
def built(monkeypatch) -> list[int]:
    """Lengths of the per-object dicts built while the test runs."""
    lengths: list[int] = []
    convert = trace_stats.object_dict

    def counting(columns, *args):
        lengths.append(len(columns.ids))
        return convert(columns, *args)

    monkeypatch.setattr(trace_stats, "object_dict", counting)
    return lengths


def _held(stats, name: str):
    """What a counter field holds, without reading (and converting) it."""
    return vars(stats)[name]


def _render_tables(programs: list[str]) -> list[str]:
    return [
        table.render()
        for table in (
            run_table1(programs),
            run_table2(programs),
            run_table4(programs),
            run_random_vs_natural(programs),
        )
    ]


def test_table_runs_build_no_per_object_dict(tmp_path, built):
    """Tables 1, 2, 4 and random-vs-natural read totals and categories only.

    A dict built inside the warm probe would be swallowed as a bad entry
    and recomputed, so the store's tallies must show a pure warm run.
    """
    root = tmp_path / "store"
    clear_cache()
    try:
        with use_store(ArtifactStore(root)):
            cold = _render_tables(["deltablue"])
        assert built == []
        clear_cache()
        warm_store = ArtifactStore(root)
        with use_store(warm_store):
            warm = _render_tables(["deltablue"])
    finally:
        clear_cache()
    assert warm == cold
    assert built == []
    counters = warm_store.counters
    assert counters.hits > 0
    assert (counters.misses, counters.writes, counters.corrupt) == (0, 0, 0)


def _first_misses(trace, config) -> list[int]:
    """Objects in first-miss order, from the per-access oracle."""
    oracle = CacheSimulator(config)
    trace.replay(ReplaySink(NaturalResolver(), oracle))
    return list(oracle.stats.misses_by_object)


@pytest.mark.parametrize("ways", [1, 2])
def test_decoded_measure_keeps_columns_in_computed_order(
    tmp_path, toy_workload, built, ways
):
    trace = record_trace(toy_workload, toy_workload.test_input)
    config = CacheConfig(size=1024, line_size=32, associativity=ways)

    def run(store):
        with use_store(store):
            return measure_trace(trace, NaturalResolver(), config)

    fresh = run(ArtifactStore(tmp_path / "store")).cache
    warm_store = ArtifactStore(tmp_path / "store")
    decoded = run(warm_store).cache
    assert warm_store.counters.hits == 1
    for name in CACHE_FIELDS:
        assert isinstance(_held(decoded, name), ObjectColumns), name
        assert isinstance(_held(fresh, name), ObjectColumns), name
    assert built == []

    for name in CACHE_FIELDS:
        assert list(getattr(decoded, name).items()) == list(
            getattr(fresh, name).items()
        ), name
    accessed = list(decoded.accesses_by_object)
    obj = trace.columns()[0]
    if ways == 1:
        assert accessed == sorted(accessed)
        assert list(decoded.misses_by_object) == sorted(decoded.misses_by_object)
    else:
        # First-touch order of the object column, and first-miss order.
        _ids, first = np.unique(obj, return_index=True)
        assert accessed == obj[np.sort(first)].tolist()
        assert list(decoded.misses_by_object) == _first_misses(trace, config)
        assert accessed != sorted(accessed)


def test_decoded_stats_keep_columns_in_computed_order(tmp_path, toy_workload, built):
    trace = record_trace(toy_workload, toy_workload.test_input)

    def run(store):
        with use_store(store):
            return collect_stats(toy_workload, toy_workload.test_input, trace=trace)

    fresh = run(ArtifactStore(tmp_path / "store"))
    decoded = run(ArtifactStore(tmp_path / "store"))
    for name in STATS_FIELDS:
        assert isinstance(_held(decoded, name), ObjectColumns), name
    assert built == []
    for name in STATS_FIELDS:
        assert list(getattr(decoded, name).items()) == list(
            getattr(fresh, name).items()
        ), name
    assert decoded == fresh
    assert list(decoded.refs_by_object) == sorted(decoded.refs_by_object)


def test_cache_stats_edit_after_read_reaches_every_consumer(toy_workload):
    trace = record_trace(toy_workload, toy_workload.test_input)
    stats = measure_trace(trace, NaturalResolver()).cache
    untouched = measure_result_from_payload(
        measure_result_to_payload(MeasureResult(cache=stats, paging=None))
    ).cache
    assert stats == untouched

    misses = stats.misses_by_object
    obj = next(iter(misses))
    misses[obj] += 1

    assert stats != untouched
    rows = dict(map(tuple, cache_stats_to_dict(stats)["misses_by_object"]))
    assert rows[obj] == untouched.misses_by_object[obj] + 1
    payload = measure_result_to_payload(MeasureResult(cache=stats, paging=None))
    assert measure_result_from_payload(payload).cache == stats
    with pytest.raises(InvariantError, match="per-object misses"):
        stats.check_conservation()
    untouched.check_conservation()


def test_workload_stats_edit_after_read_reaches_every_consumer(toy_workload):
    stats = record_trace(toy_workload, toy_workload.test_input).stats()
    untouched = workload_stats_from_payload(workload_stats_to_payload(stats))
    assert stats == untouched

    refs = stats.refs_by_object
    obj = next(iter(refs))
    refs[obj] += 1

    assert stats != untouched
    rows = dict(map(tuple, workload_stats_to_dict(stats)["refs_by_object"]))
    assert rows[obj] == untouched.refs_by_object[obj] + 1
    assert workload_stats_from_payload(workload_stats_to_payload(stats)) == stats
    with pytest.raises(InvariantError, match="per-object references"):
        check_workload_stats(stats)
    check_workload_stats(untouched)
