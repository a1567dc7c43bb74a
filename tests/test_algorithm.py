"""Tests for the full 9-phase placement algorithm."""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.core.algorithm import CCDPPlacer
from repro.trace.events import Category
from repro.vm.program import Program
from tests.oracles import ProfilerSink


def profile_program(body, cache=None):
    sink = ProfilerSink(cache_config=cache or CacheConfig(1024, 32, 1))
    program = Program(sink)
    body(program)
    program.finish()
    return sink.profile


def conflict_profile():
    """Two hot globals accessed in lockstep + a cold one + heap churn."""

    def body(p):
        hot_a = p.add_global("hot_a", 256)
        cold = p.add_global("cold", 256)
        hot_b = p.add_global("hot_b", 256)
        p.start()
        with p.function(0x1, frame_bytes=32):
            nodes = []
            for index in range(120):
                p.load(hot_a, (index * 8) % 256)
                p.load(hot_b, (index * 8) % 256)
                p.store_local(0)
                if index % 10 == 0:
                    p.call(0x2)
                    node = p.malloc(40)
                    p.ret()
                    p.store(node, 0)
                    p.load(node, 8)
                    p.free(node)

    return profile_program(body)


class TestPhase0:
    def test_hot_entities_popular(self):
        profile = conflict_profile()
        placer = CCDPPlacer(profile, CacheConfig(1024, 32, 1))
        popularity = profile.popularity()
        popular = placer._split_popular_unpopular(popularity)
        assert profile.entity_by_key("g:hot_a").eid in popular
        assert profile.entity_by_key("g:hot_b").eid in popular

    def test_zero_popularity_never_popular(self):
        profile = conflict_profile()
        placer = CCDPPlacer(profile, CacheConfig(1024, 32, 1))
        popular = placer._split_popular_unpopular(profile.popularity())
        cold = profile.entity_by_key("g:cold")
        assert cold.eid not in popular

    def test_cutoff_zero_yields_empty(self):
        profile = conflict_profile()
        placer = CCDPPlacer(
            profile, CacheConfig(1024, 32, 1), popularity_cutoff=0.0
        )
        assert placer._split_popular_unpopular(profile.popularity()) == set()


class TestPlacementMap:
    def test_every_global_placed_without_overlap(self):
        profile = conflict_profile()
        placement = CCDPPlacer(profile, CacheConfig(1024, 32, 1)).place()
        sizes = {
            e.key.split(":", 1)[1]: e.size
            for e in profile.entities_of(Category.GLOBAL)
        }
        placement.validate(sizes)  # raises on overlap or omission

    def test_hot_globals_end_up_on_disjoint_lines(self):
        profile = conflict_profile()
        config = CacheConfig(1024, 32, 1)
        placement = CCDPPlacer(profile, config).place()
        offset_a = placement.global_cache_offset("hot_a")
        offset_b = placement.global_cache_offset("hot_b")
        lines_a = {(offset_a + byte) // 32 % 32 for byte in range(0, 256, 32)}
        lines_b = {(offset_b + byte) // 32 % 32 for byte in range(0, 256, 32)}
        assert not (lines_a & lines_b)

    def test_stack_base_respects_chosen_offset(self):
        profile = conflict_profile()
        config = CacheConfig(1024, 32, 1)
        placement = CCDPPlacer(profile, config).place()
        assert placement.stack_base % 8 == 0
        assert placement.stack_base % config.size == (
            placement.stack_base % config.size
        )

    def test_heap_table_contains_sequential_name(self):
        profile = conflict_profile()
        placement = CCDPPlacer(profile, CacheConfig(1024, 32, 1)).place()
        # The scratch allocation site (0x1, 0x2 call chain) has sequential
        # lifetimes -> a unique XOR name eligible for the table.
        assert len(placement.heap_table) >= 1
        decision = next(iter(placement.heap_table.values()))
        assert (
            decision.bin_tag is not None or decision.preferred_offset is not None
        )

    def test_place_heap_false_empties_heap_table(self):
        profile = conflict_profile()
        placement = CCDPPlacer(
            profile, CacheConfig(1024, 32, 1), place_heap=False
        ).place()
        assert placement.heap_table == {}

    def test_name_depth_propagated(self):
        profile = conflict_profile()
        placement = CCDPPlacer(profile, CacheConfig(1024, 32, 1)).place()
        assert placement.name_depth == profile.name_depth

    def test_stats_recorded(self):
        profile = conflict_profile()
        placer = CCDPPlacer(profile, CacheConfig(1024, 32, 1))
        placer.place()
        assert placer.stats.popular_entities > 0
        assert placer.stats.merges + placer.stats.anchors > 0


class TestSmallGlobalPacking:
    def test_related_small_globals_share_a_line(self):
        def body(p):
            smalls = [p.add_global(f"s{i}", 8) for i in range(4)]
            p.start()
            with p.function(0x1):
                for index in range(200):
                    p.load(smalls[index % 4], 0)

        profile = profile_program(body)
        config = CacheConfig(1024, 32, 1)
        placement = CCDPPlacer(profile, config).place()
        lines = {
            placement.global_cache_offset(f"s{i}") // config.line_size
            for i in range(4)
        }
        assert len(lines) == 1  # all four 8-byte globals share one line

    def test_packed_globals_do_not_overlap(self):
        def body(p):
            smalls = [p.add_global(f"s{i}", 8) for i in range(4)]
            p.start()
            with p.function(0x1):
                for index in range(200):
                    p.load(smalls[index % 4], 0)

        profile = profile_program(body)
        placement = CCDPPlacer(profile, CacheConfig(1024, 32, 1)).place()
        offsets = sorted(placement.global_offsets[f"s{i}"] for i in range(4))
        for first, second in zip(offsets, offsets[1:]):
            assert second - first >= 8


class TestEdgeCases:
    def test_empty_profile(self):
        def body(p):
            p.start()

        profile = profile_program(body)
        placement = CCDPPlacer(profile, CacheConfig(1024, 32, 1)).place()
        assert placement.global_offsets == {}

    def test_untouched_globals_still_placed(self):
        def body(p):
            p.add_global("never_used", 64)
            p.start()

        profile = profile_program(body)
        placement = CCDPPlacer(profile, CacheConfig(1024, 32, 1)).place()
        assert "never_used" in placement.global_offsets

    def test_object_larger_than_cache(self):
        def body(p):
            giant = p.add_global("giant", 4096)
            p.start()
            with p.function(0x1):
                for index in range(300):
                    p.load(giant, (index * 64) % 4096)

        profile = profile_program(body)
        placement = CCDPPlacer(profile, CacheConfig(1024, 32, 1)).place()
        assert "giant" in placement.global_offsets
