"""Unit + property tests for the TRG recency-queue builder."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.profiling.trg import entity_affinity
from tests.oracles import TRGBuilder


def edge(builder: TRGBuilder, a, b) -> int:
    key = (a, b) if a <= b else (b, a)
    return builder.edges.get(key, 0)


class TestQueueBehaviour:
    def test_first_reference_creates_no_edges(self):
        builder = TRGBuilder(queue_threshold=1024, chunk_size=256)
        builder.observe(1, 0, 256)
        assert not builder.edges

    def test_interleaved_references_create_edges(self):
        builder = TRGBuilder(queue_threshold=1024, chunk_size=256)
        builder.observe(1, 0, 256)   # A
        builder.observe(2, 0, 256)   # B
        builder.observe(1, 0, 256)   # A again: B intervened
        assert edge(builder, (1, 0), (2, 0)) == 1

    def test_repeated_same_chunk_is_free(self):
        builder = TRGBuilder(queue_threshold=1024, chunk_size=256)
        for _ in range(100):
            builder.observe(1, 0, 256)
        assert not builder.edges
        assert builder.queue_length == 1

    def test_edge_weight_counts_each_intervention(self):
        builder = TRGBuilder(queue_threshold=4096, chunk_size=256)
        for _ in range(5):
            builder.observe(1, 0, 256)
            builder.observe(2, 0, 256)
        # A B A B ... (10 references): the first two create no edges,
        # each of the remaining 8 sees the other in front -> weight 8.
        assert edge(builder, (1, 0), (2, 0)) == 8

    def test_all_entries_in_front_get_edges(self):
        builder = TRGBuilder(queue_threshold=4096, chunk_size=256)
        builder.observe(1, 0, 256)
        builder.observe(2, 0, 256)
        builder.observe(3, 0, 256)
        builder.observe(1, 0, 256)  # 3 and 2 are in front of 1
        assert edge(builder, (1, 0), (2, 0)) == 1
        assert edge(builder, (1, 0), (3, 0)) == 1
        assert edge(builder, (2, 0), (3, 0)) == 0

    def test_entries_behind_get_no_edges(self):
        builder = TRGBuilder(queue_threshold=4096, chunk_size=256)
        builder.observe(2, 0, 256)
        builder.observe(1, 0, 256)
        builder.observe(3, 0, 256)
        builder.observe(1, 0, 256)  # only 3 in front; 2 is behind
        assert edge(builder, (1, 0), (3, 0)) == 1
        assert edge(builder, (1, 0), (2, 0)) == 0

    def test_eviction_at_threshold(self):
        builder = TRGBuilder(queue_threshold=512, chunk_size=256)
        builder.observe(1, 0, 256)
        builder.observe(2, 0, 256)
        builder.observe(3, 0, 256)  # evicts entity 1
        assert builder.queue_length == 2
        assert builder.queued_bytes <= 512
        builder.observe(1, 0, 256)  # back in, but no edges (was evicted)
        assert edge(builder, (1, 0), (2, 0)) == 0

    def test_small_entities_account_their_own_size(self):
        builder = TRGBuilder(queue_threshold=64, chunk_size=256)
        for eid in range(8):
            builder.observe(eid, 0, 8)
        assert builder.queue_length == 8  # 64 bytes total, all fit

    def test_distinct_chunks_of_one_entity_relate(self):
        builder = TRGBuilder(queue_threshold=4096, chunk_size=256)
        builder.observe(1, 0, 256)
        builder.observe(1, 3, 256)
        builder.observe(1, 0, 256)
        assert edge(builder, (1, 0), (1, 3)) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TRGBuilder(queue_threshold=0)
        with pytest.raises(ValueError):
            TRGBuilder(queue_threshold=10, chunk_size=0)


class TestEntityAffinity:
    def test_collapses_chunk_edges(self):
        edges = {
            ((1, 0), (2, 0)): 5,
            ((1, 1), (2, 3)): 7,
            ((1, 0), (3, 0)): 2,
        }
        affinity = entity_affinity(edges)
        assert affinity[(1, 2)] == 12
        assert affinity[(1, 3)] == 2

    def test_ignores_self_edges(self):
        edges = {((1, 0), (1, 5)): 9}
        assert entity_affinity(edges) == {}


# -- properties ----------------------------------------------------------------

refs = st.lists(
    st.tuples(st.integers(1, 6), st.integers(0, 3)), min_size=0, max_size=200
)


@given(refs, st.integers(256, 4096))
@settings(max_examples=60, deadline=None)
def test_queue_never_exceeds_threshold(stream, threshold):
    builder = TRGBuilder(queue_threshold=threshold, chunk_size=256)
    for eid, chunk in stream:
        builder.observe(eid, chunk, 256)
        assert builder.queued_bytes <= max(threshold, 256)


@given(refs)
@settings(max_examples=60, deadline=None)
def test_edge_weights_positive_and_keys_canonical(stream):
    builder = TRGBuilder(queue_threshold=2048, chunk_size=256)
    for eid, chunk in stream:
        builder.observe(eid, chunk, 256)
    for (a, b), weight in builder.edges.items():
        assert weight > 0
        assert a <= b


@given(refs)
@settings(max_examples=30, deadline=None)
def test_unbounded_queue_weight_equals_stack_distance_count(stream):
    """With a huge threshold, edge(A,B) counts exactly the times B sat in
    front of A (and vice versa) at a re-reference — a reuse-interval
    property we can recompute independently."""
    builder = TRGBuilder(queue_threshold=10**9, chunk_size=256)
    expected: dict[tuple, int] = {}
    order: list[tuple] = []
    for eid, chunk in stream:
        key = (eid, chunk)
        if order and order[0] == key:
            continue
        if key in order:
            position = order.index(key)
            for other in order[:position]:
                pair = (key, other) if key <= other else (other, key)
                expected[pair] = expected.get(pair, 0) + 1
            order.remove(key)
        order.insert(0, key)
        builder.observe(eid, chunk, 256)
    assert builder.edges == expected
