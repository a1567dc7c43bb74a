"""Differential tests: one-pass resolution against the per-op resolvers.

:meth:`TraceRecorder.resolve_bases` resolves a recording in one
resolver call over its memoized :class:`~repro.trace.buffer.LifetimeWalk`;
``tests/oracles.py`` keeps the per-op twins (one resolver call per
lifetime op over the sort-based heaps).  Bases, births and deaths must
be equal on real traces and on generated lifetime streams, and the
allocators must leave the same free lists as the sort-based ones after
every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheConfig
from repro.core.placement_map import HeapDecision, PlacementMap
from repro.memory.allocators import (
    BinnedHeap,
    FirstFitAllocator,
    TemporalFitAllocator,
)
from repro.memory.freelist import HeapError
from repro.memory.layout import DATA_BASE, STACK_BASE
from repro.naming.xor import xor_fold
from repro.runtime.driver import build_placement
from repro.runtime.resolvers import CCDPResolver, NaturalResolver, RandomResolver
from repro.trace.buffer import TraceRecorder, record_trace
from repro.trace.events import Category, ObjectInfo, STACK_OBJECT_ID
from repro.workloads import drift_workload_names, make_workload, workload_names
from tests.oracles import (
    ScalarBinnedHeap,
    ScalarFirstFitAllocator,
    SortedTemporalFitAllocator,
    scalar_resolve_bases,
)

#: The paper programs, the heap-churn and layout families, and the drift traces.
PROGRAMS = (
    *workload_names(),
    "alloc-mix",
    "pqueue-churn",
    "layout-stress",
    *drift_workload_names(),
)


def assert_same_resolution(trace: TraceRecorder, resolver) -> None:
    resolved = trace.resolve_bases(resolver)
    oracle = scalar_resolve_bases(trace, resolver)
    assert resolved.bases.tolist() == oracle.bases.tolist()
    assert resolved.born.tolist() == oracle.born.tolist()
    assert resolved.died.tolist() == oracle.died.tolist()


@pytest.mark.parametrize("program", PROGRAMS)
def test_real_traces_resolve_like_the_per_op_resolvers(program):
    workload = make_workload(program)
    train = record_trace(workload, workload.train_input)
    test = record_trace(workload, workload.test_input)
    resolvers = [
        NaturalResolver(),
        RandomResolver(seed=1),
        RandomResolver(seed=12345),
        RandomResolver(seed=3, max_pad=1000),
    ]
    for ways in (1, 2, 4):
        _profile, placement = build_placement(
            workload,
            workload.train_input,
            CacheConfig(8192, 32, ways),
            trace=train,
            cost_model="direct" if ways == 1 else "assoc",
        )
        resolvers.append(CCDPResolver(placement))
        if ways == 1:
            resolvers.append(CCDPResolver(placement, compact_heap=True))
    for trace in (train, test):
        for resolver in resolvers:
            assert_same_resolution(trace, resolver)


# -- generated lifetime streams ------------------------------------------------

#: Call chains whose XOR names the generated placements decide on.
CHAINS = ((0x10, 0x20, 0x30, 0x40), (0x99,), (0x44, 0x8), (), (0x7, 0x70, 0x700))
SYMBOLS = ("a", "b", "c", "d")

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("object"),
            st.sampled_from((Category.GLOBAL, Category.CONST)),
            st.integers(1, 300),
            st.sampled_from(SYMBOLS),
        ),
        st.tuples(
            st.just("alloc"),
            st.integers(0, 600),
            st.sampled_from(CHAINS),
            st.integers(0, 3),
        ),
        st.tuples(st.just("free"), st.integers(0, 40)),
    ),
    max_size=40,
)

_decisions = st.one_of(
    st.none(),
    st.builds(
        HeapDecision,
        bin_tag=st.one_of(st.none(), st.integers(0, 3)),
        preferred_offset=st.one_of(st.none(), st.integers(0, 20_000)),
    ),
)


@st.composite
def _placements(draw) -> PlacementMap:
    size = draw(st.sampled_from((1024, 2048, 4096, 8192, 16384)))
    placement = PlacementMap(cache_config=CacheConfig(size, 32, 1))
    placement.data_base = DATA_BASE + draw(st.integers(0, 64)) * 32
    placement.stack_base = STACK_BASE + draw(st.integers(0, 64)) * 32
    offsets = draw(st.permutations([0, 512, 1024, 4096]))
    # Every symbol placed: the per-op twin cannot see where the placed
    # globals end, so an unseen one falls back elsewhere there.
    placement.global_offsets = dict(zip(SYMBOLS, offsets))
    placement.name_depth = draw(st.integers(1, 4))
    for chain in CHAINS:
        decision = draw(_decisions)
        if decision is not None:
            placement.heap_table[xor_fold(chain, placement.name_depth)] = decision
    return placement


_resolvers = st.one_of(
    st.just(NaturalResolver()),
    st.builds(
        RandomResolver,
        seed=st.integers(0, 1000),
        max_pad=st.sampled_from((8, 64, 1000, 8192)),
    ),
    st.builds(CCDPResolver, _placements(), compact_heap=st.booleans()),
)


def stream_recording(ops) -> TraceRecorder:
    """Record generated ops, ids drawn fresh unless an op reuses one.

    A free names an id in ``0..40``: a live or freed heap object, an
    id never allocated, or (skipped here) a static or the stack.  An
    allocation with ``reuse > 0`` takes the id of an earlier allocation.
    """
    recorder = TraceRecorder()
    statics = {STACK_OBJECT_ID}
    allocated: list[int] = []
    next_id = 1
    for op in ops:
        if op[0] == "object":
            _, category, size, symbol = op
            recorder.on_object(ObjectInfo(next_id, category, size, symbol))
            statics.add(next_id)
            next_id += 1
        elif op[0] == "alloc":
            _, size, chain, reuse = op
            if reuse and allocated:
                obj_id = allocated[-reuse % len(allocated)]
            else:
                obj_id, next_id = next_id, next_id + 1
                allocated.append(obj_id)
            recorder.on_alloc(ObjectInfo(obj_id, Category.HEAP, size, "h"), chain)
        elif op[1] not in statics:
            recorder.on_free(op[1])
        recorder.on_access(STACK_OBJECT_ID, 0, 4, False, Category.STACK)
    recorder.on_end()
    return recorder


def _outcome(resolve):
    try:
        resolved = resolve()
    except Exception as exc:  # the error, type and text, is the outcome
        return type(exc), str(exc)
    return resolved.bases.tolist(), resolved.born.tolist(), resolved.died.tolist()


@given(ops=_ops, resolver=_resolvers)
@settings(max_examples=300, deadline=None)
def test_lifetime_streams_resolve_like_the_per_op_resolvers(ops, resolver):
    trace = stream_recording(ops)
    assert _outcome(lambda: trace.resolve_bases(resolver)) == _outcome(
        lambda: scalar_resolve_bases(trace, resolver)
    )


# -- allocator fuzz ------------------------------------------------------------

_heap_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("alloc"),
            st.integers(1, 700),
            st.one_of(st.none(), st.integers(0, 9000)),
            st.one_of(st.none(), st.integers(0, 2)),
        ),
        st.tuples(st.just("free"), st.integers(0, 50), st.none(), st.none()),
    ),
    max_size=80,
)


def _free_list(allocator) -> list[tuple[int, int, int]]:
    return [(b.addr, b.size, b.last_touch) for b in allocator.arena.free_blocks]


def _drive(product, oracle, ops, allocate, check) -> None:
    """Apply ``ops`` to both heaps, comparing after every step."""
    live: list[int] = []
    for op, size, offset, tag in ops:
        if op == "alloc":
            addr = allocate(product, size, offset, tag)
            assert addr == allocate(oracle, size, offset, tag)
            live.append(addr)
        elif live:
            addr = live.pop(size % len(live))
            product.free(addr)
            oracle.free(addr)
        check()


@given(_heap_ops)
@settings(max_examples=150, deadline=None)
def test_first_fit_matches_the_sorted_free_list(ops):
    product, oracle = FirstFitAllocator(base=0x1000), ScalarFirstFitAllocator(0x1000)

    def check():
        assert _free_list(product) == _free_list(oracle)
        product.arena.check_invariants()

    _drive(product, oracle, ops, lambda heap, size, _o, _t: heap.allocate(size), check)


@pytest.mark.parametrize("with_offsets", [False, True], ids=["plain", "offsets"])
@given(ops=_heap_ops, cache_size=st.sampled_from((1024, 8192)))
@settings(max_examples=150, deadline=None)
def test_temporal_fit_matches_the_sort_per_allocation(with_offsets, ops, cache_size):
    product = TemporalFitAllocator(0x2000000, cache_size)
    oracle = SortedTemporalFitAllocator(0x2000000, cache_size)

    def allocate(heap, size, offset, _tag):
        return heap.allocate(size, offset if with_offsets else None)

    def check():
        assert _free_list(product) == _free_list(oracle)
        product.arena.check_invariants()

    _drive(product, oracle, ops, allocate, check)


@given(ops=_heap_ops)
@settings(max_examples=100, deadline=None)
def test_binned_heap_matches_the_sorted_bins(ops):
    product, oracle = BinnedHeap(4096), ScalarBinnedHeap(4096)

    def check():
        assert product.bins_in_use() == list(oracle._bins)
        for tag, allocator in oracle._bins.items():
            assert _free_list(product._bin_for(tag)) == _free_list(allocator)
        product.check_invariants()

    _drive(
        product,
        oracle,
        ops,
        lambda heap, size, offset, tag: heap.allocate(size, tag, offset),
        check,
    )


def test_allocator_errors_match():
    for product, oracle in (
        (FirstFitAllocator(0), ScalarFirstFitAllocator(0)),
        (TemporalFitAllocator(0, 1024), SortedTemporalFitAllocator(0, 1024)),
    ):
        for call in (lambda h: h.allocate(0), lambda h: h.free(0x40)):
            with pytest.raises(HeapError) as got:
                call(product)
            with pytest.raises(HeapError) as want:
                call(oracle)
            assert str(got.value) == str(want.value)
