"""Unit tests for the profiler sink (Name profile + entities + TRG)."""

from __future__ import annotations

import pytest

from repro.adaptive import window_profile
from repro.cache.config import CacheConfig
from repro.profiling.batch import profile_trace
from repro.profiling.profile_data import STACK_ENTITY_ID
from repro.profiling.sampling import sampled_profile
from repro.runtime.driver import profile_workload
from repro.trace.buffer import TraceRecorder
from repro.trace.events import Category, ObjectInfo
from repro.vm.program import Program
from tests.oracles import ProfilerSink


def profile_of(body) -> "Profile":
    sink = ProfilerSink(cache_config=CacheConfig(1024, 32, 1))
    program = Program(sink)
    body(program)
    program.finish()
    return sink.profile


class TestEntities:
    def test_stack_entity_exists(self):
        profile = profile_of(lambda p: p.start())
        stack = profile.entities[STACK_ENTITY_ID]
        assert stack.category is Category.STACK
        assert stack.key == "stack"

    def test_global_and_const_keys(self):
        def body(p):
            p.add_global("counts", 64)
            p.add_constant("table", 32)
            p.start()

        profile = profile_of(body)
        assert profile.entity_by_key("g:counts") is not None
        assert profile.entity_by_key("c:table") is not None

    def test_heap_entities_merge_by_xor_name(self):
        def body(p):
            p.start()
            p.call(0xAA)
            first = p.malloc(32)
            p.free(first)
            second = p.malloc(48)
            p.free(second)
            p.ret()

        profile = profile_of(body)
        heap_entities = profile.entities_of(Category.HEAP)
        assert len(heap_entities) == 1
        entity = heap_entities[0]
        assert entity.alloc_count == 2
        assert entity.size == 48  # max of the two
        assert not entity.collided

    def test_concurrent_same_name_marks_collision(self):
        def body(p):
            p.start()
            p.call(0xAA)
            first = p.malloc(32)
            second = p.malloc(32)
            p.free(first)
            p.free(second)
            p.ret()

        profile = profile_of(body)
        entity = profile.entities_of(Category.HEAP)[0]
        assert entity.collided

    def test_distinct_sites_make_distinct_entities(self):
        def body(p):
            p.start()
            p.call(0xAA)
            a = p.malloc(8)
            p.ret()
            p.call(0xBB)
            b = p.malloc(8)
            p.ret()
            p.free(a)
            p.free(b)

        profile = profile_of(body)
        assert len(profile.entities_of(Category.HEAP)) == 2


class TestNameProfile:
    def test_reference_counts(self):
        def body(p):
            g = p.add_global("g", 64)
            p.start()
            for _ in range(5):
                p.load(g, 0)

        profile = profile_of(body)
        assert profile.entity_by_key("g:g").refs == 5
        assert profile.total_accesses == 5

    def test_lifetime_spans_accesses(self):
        def body(p):
            g = p.add_global("g", 64)
            h = p.add_global("h", 64)
            p.start()
            p.load(g, 0)       # t=1
            p.load(h, 0)       # t=2
            p.load(h, 0)       # t=3
            p.load(g, 0)       # t=4

        profile = profile_of(body)
        assert profile.entity_by_key("g:g").lifetime == 3
        assert profile.entity_by_key("g:h").lifetime == 1

    def test_stack_size_tracks_max_depth(self):
        def body(p):
            p.start()
            p.push_frame(128)
            p.push_frame(64)
            p.store_local(0)
            p.pop_frame()
            p.pop_frame()

        profile = profile_of(body)
        assert profile.entities[STACK_ENTITY_ID].size >= 192

    def test_alloc_adjacency_recorded(self):
        def body(p):
            p.start()
            for _ in range(3):
                p.call(0xAA)
                a = p.malloc(8)
                p.ret()
                p.call(0xBB)
                b = p.malloc(8)
                p.ret()
                p.free(a)
                p.free(b)

        profile = profile_of(body)
        assert len(profile.alloc_adjacency) == 1
        ((pair, count),) = profile.alloc_adjacency.items()
        assert count == 5  # A B A B A B -> 5 adjacent cross pairs


class TestPopularity:
    def test_popularity_sums_incident_edges(self):
        def body(p):
            a = p.add_global("a", 32)
            b = p.add_global("b", 32)
            p.start()
            for _ in range(10):
                p.load(a, 0)
                p.load(b, 0)

        profile = profile_of(body)
        popularity = profile.popularity()
        eid_a = profile.entity_by_key("g:a").eid
        eid_b = profile.entity_by_key("g:b").eid
        assert popularity[eid_a] == popularity[eid_b] > 0

    def test_untouched_entity_has_zero_popularity(self):
        def body(p):
            p.add_global("cold", 32)
            p.start()

        profile = profile_of(body)
        eid = profile.entity_by_key("g:cold").eid
        assert profile.popularity()[eid] == 0


class TestChunking:
    def test_accesses_map_to_chunks(self):
        def body(p):
            g = p.add_global("g", 1024)
            h = p.add_global("h", 8)
            p.start()
            for _ in range(4):
                p.load(g, 0)       # chunk 0
                p.load(g, 512)     # chunk 2
                p.load(h, 0)

        profile = profile_of(body)
        eid_g = profile.entity_by_key("g:g").eid
        chunks = {
            pair[1]
            for edge in profile.trg
            for pair in edge
            if pair[0] == eid_g
        }
        assert chunks == {0, 2}

    def test_queue_threshold_defaults_to_twice_cache(self):
        sink = ProfilerSink(cache_config=CacheConfig(1024, 32, 1))
        assert sink.profile.queue_threshold == 2048

    def test_name_depth_recorded(self):
        sink = ProfilerSink(name_depth=3)
        assert sink.profile.name_depth == 3


def _one_access_trace() -> TraceRecorder:
    trace = TraceRecorder()
    trace.on_object(ObjectInfo(1, Category.GLOBAL, 64, "g"))
    trace.on_access(1, 8, 4, False, Category.GLOBAL)
    trace.on_end()
    return trace


#: Each profiling entry point, called on a recorded trace.
ENTRY_POINTS = {
    "profile_trace": lambda trace, **kw: profile_trace(trace, **kw),
    "window_profile": lambda trace, **kw: window_profile(trace, trace.events, **kw),
    "profile_workload": lambda trace, **kw: profile_workload(
        None, "train", trace=trace, **kw
    ),
    "sampled_profile": lambda trace, **kw: sampled_profile(None, trace=trace, **kw),
}


@pytest.mark.parametrize(
    "entry,kwargs,message",
    [
        (entry, kwargs, message)
        for entry in ("profile_trace", "window_profile", "profile_workload")
        for kwargs, message in (
            ({"chunk_size": 0}, "chunk size must be positive: 0"),
            ({"chunk_size": -256}, "chunk size must be positive: -256"),
            ({"queue_threshold": 0}, "queue threshold must be positive: 0"),
            ({"queue_threshold": -1}, "queue threshold must be positive: -1"),
        )
    ]
    + [
        ("sampled_profile", {"window": 0, "period": 10}, "need 0 < window <= period"),
        ("sampled_profile", {"window": 20, "period": 10}, "need 0 < window <= period"),
    ],
)
def test_entry_points_reject_bad_parameters(entry, kwargs, message):
    """A bad chunk size, queue threshold or sampling pattern raises, never warns."""
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](_one_access_trace(), **kwargs)
