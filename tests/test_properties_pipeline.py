"""Property-based tests of the full pipeline over generated workloads.

Hypothesis drives the parametric workload kit through the whole
profile -> place -> simulate pipeline and checks the invariants that
must hold for *any* program:

* the placement map is structurally valid (every global placed, none
  overlapping);
* the reference stream is placement-invariant (placements move data,
  never change what the program does);
* placement is deterministic;
* CCDP never catastrophically regresses the miss rate;
* the custom allocator never overlaps live heap objects.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.cache.config import CacheConfig
from repro.runtime.driver import build_placement, measure, run_experiment
from repro.runtime.resolvers import CCDPResolver, NaturalResolver
from repro.trace.buffer import _OP_ALLOC, _OP_FREE, record_trace
from repro.trace.events import Category
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

specs = st.builds(
    SyntheticSpec,
    hot_globals=st.integers(1, 5),
    hot_size=st.sampled_from((64, 256, 1024, 1920)),
    cold_spacer=st.sampled_from((0, 512, 6272, 7168)),
    small_cluster=st.integers(0, 6),
    iterations=st.integers(150, 400),
    heap_churn=st.integers(0, 2),
    heap_persistent=st.integers(0, 6),
    heap_object_bytes=st.sampled_from((16, 48, 96)),
    stack_frame_bytes=st.sampled_from((32, 96, 256)),
    constant_bytes=st.sampled_from((0, 128, 512)),
)

CACHE = CacheConfig(2048, 32, 1)


@given(specs)
@settings(max_examples=25, deadline=None)
def test_placement_map_is_always_valid(spec):
    workload = SyntheticWorkload(spec)
    profile, placement = build_placement(workload, cache_config=CACHE)
    sizes = {
        e.key.split(":", 1)[1]: e.size
        for e in profile.entities_of(Category.GLOBAL)
    }
    placement.validate(sizes)
    assert placement.data_base % 8 == 0
    assert placement.stack_base % 8 == 0


@given(specs)
@settings(max_examples=15, deadline=None)
def test_reference_stream_is_placement_invariant(spec):
    workload = SyntheticWorkload(spec)
    _profile, placement = build_placement(workload, cache_config=CACHE)
    natural = measure(workload, "test", NaturalResolver(), CACHE)
    ccdp = measure(workload, "test", CCDPResolver(placement), CACHE)
    assert natural.cache.accesses == ccdp.cache.accesses
    assert (
        natural.cache.accesses_by_category == ccdp.cache.accesses_by_category
    )


@given(specs)
@settings(max_examples=15, deadline=None)
def test_placement_is_deterministic(spec):
    first = build_placement(SyntheticWorkload(spec), cache_config=CACHE)[1]
    second = build_placement(SyntheticWorkload(spec), cache_config=CACHE)[1]
    assert first.global_offsets == second.global_offsets
    assert first.stack_base == second.stack_base
    assert first.heap_table == second.heap_table


@given(specs)
@settings(max_examples=15, deadline=None)
def test_ccdp_never_catastrophic(spec):
    # Placement trains on one input and is measured on another, so on
    # adversarial synthetic layouts it can lose (e.g. a collided XOR heap
    # name whose bin arena aliases the hot globals on this 2 KB cache).
    # A 160-spec sweep of this strategy measured worst cases of 2.26x /
    # +7.4pp; the bound asserts "never catastrophic", not "never worse".
    result = run_experiment(SyntheticWorkload(spec), cache_config=CACHE)
    assert result.ccdp.cache.miss_rate <= (
        result.original.cache.miss_rate * 2.5 + 10.0
    )


@given(specs)
@settings(max_examples=10, deadline=None)
def test_custom_heap_never_overlaps(spec):
    assume(spec.heap_churn or spec.heap_persistent)
    workload = SyntheticWorkload(spec)
    _profile, placement = build_placement(workload, cache_config=CACHE)
    trace = record_trace(workload, "test")
    measure(workload, "test", CCDPResolver(placement), CACHE, trace=trace)
    bases = trace.resolve_bases(CCDPResolver(placement)).bases
    # Replay the heap in op order: no allocation overlaps a live one.
    live: dict[int, tuple[int, int]] = {}
    for _position, kind, payload in trace.lifetime_ops:
        if kind == _OP_ALLOC:
            info = payload[0]
            start, end = int(bases[info.obj_id]), int(bases[info.obj_id]) + info.size
            for other_start, other_end in live.values():
                assert end <= other_start or other_end <= start
            live[info.obj_id] = (start, end)
        elif kind == _OP_FREE:
            live.pop(payload, None)
