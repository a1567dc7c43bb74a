"""Differential fuzzing: fast engines vs their scalar reference twins.

The fixed parity suites check the batched cache kernel and the array
placement engine against the per-event oracles (:mod:`tests.oracles`)
on the nine benchmark workloads.  This harness widens that net with hypothesis-generated
inputs: random access streams over random cache geometries for the
simulators (and their direct-mapped eviction matrices), and random
:class:`~repro.workloads.synthetic.SyntheticSpec` workloads for the placers.  Both directions assert *bit-identical*
results — equal :class:`~repro.cache.simulator.CacheStats` and equal
:class:`~repro.core.placement_map.PlacementMap` — because the fast
engines are specified as exact reimplementations, not approximations.
Set-associative streams also compare the serialized stats, whose
per-object dicts must list objects in the scalar simulator's order.

The suite is deterministic: ``derandomize=True`` derives every example
from the test's own source, so CI runs a fixed corpus (~210 cases) with
no deadline flakes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.batch import BatchCacheSimulator
from repro.cache.config import CacheConfig
from repro.cache.stack import capped_hits, previous_touch
from repro.core.algorithm import CCDPPlacer
from repro.profiling.batch import profile_trace
from repro.store.artifacts import cache_stats_to_dict
from repro.trace.buffer import record_trace
from repro.trace.events import Category
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload
from tests.oracles import CacheSimulator, ScalarPlacer, scalar_profile

_FUZZ_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Geometries sampled by the simulator fuzz: varied size/line/assoc,
#: including 2-, 4- and 8-way shapes for the stack-distance kernel.
_CONFIGS = (
    CacheConfig(size=512, line_size=16, associativity=1),
    CacheConfig(size=1024, line_size=32, associativity=1),
    CacheConfig(size=8192, line_size=32, associativity=1),
    CacheConfig(size=1024, line_size=32, associativity=2),
    CacheConfig(size=2048, line_size=64, associativity=4),
    CacheConfig(size=2048, line_size=32, associativity=8),
)

_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 14) - 1),  # addr
        st.integers(min_value=0, max_value=96),  # size (0 or spanning lines)
        st.integers(min_value=0, max_value=7),  # obj_id
        st.sampled_from(list(Category)),  # category
        st.booleans(),  # is_store
    ),
    min_size=1,
    max_size=300,
)


def _repeat_runs(runs):
    return [event for event, length in runs for _ in range(length)]


#: Few distinct blocks in long runs; all but address 48 share set 0 in
#: every geometry above except 8K direct-mapped.  Reuse gaps spanning few
#: distinct blocks cross chunk boundaries, and sets thrash past their ways.
_narrow_events = st.lists(
    st.tuples(
        st.tuples(
            st.sampled_from((0, 1024, 2048, 3072, 4096, 5120, 8192, 9216, 48)),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=3),
            st.sampled_from(list(Category)),
            st.booleans(),
        ),
        st.integers(min_value=1, max_value=40),  # run length
    ),
    min_size=1,
    max_size=40,
).map(_repeat_runs)


def _run_scalar(config, events, **kwargs):
    sim = CacheSimulator(config, **kwargs)
    for addr, size, obj_id, category, is_store in events:
        sim.access(addr, size, obj_id, category, is_store)
    return sim


def _run_batched(config, events, chunk, **kwargs):
    engine = BatchCacheSimulator(config, **kwargs)
    addr, size, obj_id, category, is_store = (
        np.array(column, dtype=dtype)
        for column, dtype in zip(
            zip(*events), (np.int64, np.int32, np.int32, np.int8, np.int8)
        )
    )
    for start in range(0, len(addr), chunk):
        stop = start + chunk
        engine.consume(
            addr[start:stop],
            size[start:stop],
            obj_id[start:stop],
            category[start:stop],
            is_store[start:stop],
        )
    return engine


class TestSimulatorDifferential:
    @settings(max_examples=120, **_FUZZ_SETTINGS)
    @given(
        config=st.sampled_from(_CONFIGS),
        events=st.one_of(_events, _narrow_events),
        chunk=st.sampled_from((1, 7, 64, 1 << 16)),
        classify=st.booleans(),
    )
    def test_batched_equals_scalar(self, config, events, chunk, classify):
        """Chunked batched simulation == event-at-a-time scalar simulation.

        Odd chunk sizes split the stream mid-run, so the kernel's carried
        state (resident tags, dirty bits, per-set LRU order, the three-Cs
        shadow stack and seen blocks) is exercised across chunk
        boundaries, not just within one consume call.
        """
        scalar = _run_scalar(config, events, classify=classify).stats
        batched = _run_batched(config, events, chunk, classify=classify).stats
        assert batched == scalar
        if config.associativity > 1:
            assert cache_stats_to_dict(batched) == cache_stats_to_dict(scalar)

    @settings(max_examples=80, **_FUZZ_SETTINGS)
    @given(
        config=st.sampled_from([c for c in _CONFIGS if c.associativity == 1]),
        events=st.one_of(_events, _narrow_events),
        chunk=st.sampled_from((1, 7, 64, 1 << 16)),
    )
    def test_batched_evictions_equal_scalar(self, config, events, chunk):
        """The eviction matrix == the oracle's, pair for pair and in order.

        ``_events`` draws references up to 96 bytes long, so one reference
        can evict in two sets; the carried per-set owner crosses chunk
        boundaries at the odd chunk sizes.
        """
        scalar = _run_scalar(config, events, track_evictions=True)
        batched = _run_batched(config, events, chunk, track_evictions=True)
        assert list(batched.evictions.items()) == list(scalar.evictions.items())
        assert batched.stats == scalar.stats


def _capped_hits_brute_force(keys, cap):
    hits = []
    for i, key in enumerate(keys):
        earlier = [p for p in range(i) if keys[p] == key]
        hits.append(bool(earlier) and len(set(keys[earlier[-1] + 1 : i])) < cap)
    return hits


class TestStackDistanceDifferential:
    @settings(max_examples=60, **_FUZZ_SETTINGS)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=12), max_size=400),
        cap=st.integers(min_value=1, max_value=10),
    )
    def test_capped_hits_equals_brute_force(self, keys, cap):
        """The merge-sort-tree count == counting distinct keys directly."""
        prev, _order = previous_touch(np.array(keys, dtype=np.int64))
        assert capped_hits(prev, cap).tolist() == _capped_hits_brute_force(keys, cap)


_specs = st.builds(
    SyntheticSpec,
    hot_globals=st.integers(min_value=1, max_value=6),
    hot_size=st.sampled_from((64, 256, 1024)),
    cold_spacer=st.sampled_from((0, 512)),
    small_cluster=st.integers(min_value=0, max_value=4),
    iterations=st.integers(min_value=60, max_value=240),
    heap_churn=st.integers(min_value=0, max_value=2),
    heap_persistent=st.integers(min_value=0, max_value=3),
    heap_object_bytes=st.sampled_from((16, 48)),
    stack_frame_bytes=st.sampled_from((32, 96)),
    constant_bytes=st.sampled_from((0, 128)),
)


class TestPlacerDifferential:
    @settings(max_examples=25, **_FUZZ_SETTINGS)
    @given(spec=_specs, place_heap=st.booleans())
    def test_array_equals_scalar(self, spec, place_heap):
        """CCDPPlacer's array scans == the ScalarPlacer oracle, map for map.

        PlacementMap equality covers the global layout, segment bases,
        the heap allocation table, and the placement stats (whose timing
        fields are excluded from comparison by construction).
        """
        workload = SyntheticWorkload(spec)
        trace = record_trace(workload, workload.train_input)
        profile = profile_trace(trace)
        config = CacheConfig(size=1024, line_size=32, associativity=1)
        placements = [
            placer_class(profile, cache_config=config, place_heap=place_heap).place()
            for placer_class in (CCDPPlacer, ScalarPlacer)
        ]
        assert placements[0] == placements[1]

    @settings(max_examples=8, **_FUZZ_SETTINGS)
    @given(spec=_specs)
    def test_batched_profile_equals_scalar_profile(self, spec):
        """profile_trace over a recording == live ProfilerSink profiling."""
        workload = SyntheticWorkload(spec)
        trace = record_trace(workload, workload.train_input)
        batched = profile_trace(trace)
        scalar = scalar_profile(workload, workload.train_input)
        assert batched.trg == scalar.trg
        assert batched.total_accesses == scalar.total_accesses
        assert set(batched.entities) == set(scalar.entities)
        assert batched.popularity() == scalar.popularity()
        assert batched.entity_affinity() == scalar.entity_affinity()
