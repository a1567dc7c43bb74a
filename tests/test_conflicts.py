"""Tests for eviction tracking and the conflict debugger.

Each class runs on the per-access oracle (``simulator`` is
:class:`tests.oracles.CacheSimulator`) and, through its ``Batched``
subclass, on :class:`~repro.cache.batch.BatchCacheSimulator` fed one
reference per chunk.
"""

from __future__ import annotations

import pytest

from repro.analysis.conflicts import (
    conflict_report,
    measured_conflicts,
    predicted_conflicts,
    total_cross_object_evictions,
)
from repro.cache.batch import BatchCacheSimulator
from repro.cache.config import CacheConfig
from repro.profiling.profile_data import Entity, Profile
from repro.trace.events import Category
from tests.oracles import CacheSimulator, one_reference_simulator


class _TrackingSimulator:
    simulator = CacheSimulator

    def make_tracking_sim(self):
        return self.simulator(CacheConfig(1024, 32, 1), track_evictions=True)


class TestEvictionTracking(_TrackingSimulator):
    def test_records_evictor_victim_pairs(self):
        sim = self.make_tracking_sim()
        sim.access(0, 4, 1, Category.GLOBAL)
        sim.access(1024, 4, 2, Category.GLOBAL)   # evicts obj 1's block
        assert sim.evictions == {(2, 1): 1}

    def test_pingpong_accumulates_both_directions(self):
        sim = self.make_tracking_sim()
        for _ in range(5):
            sim.access(0, 4, 1, Category.GLOBAL)
            sim.access(1024, 4, 2, Category.GLOBAL)
        assert sim.evictions[(2, 1)] == 5
        assert sim.evictions[(1, 2)] == 4

    def test_self_eviction_recorded(self):
        sim = self.make_tracking_sim()
        sim.access(0, 4, 7, Category.GLOBAL)
        sim.access(1024, 4, 7, Category.GLOBAL)
        assert sim.evictions == {(7, 7): 1}

    def test_compulsory_misses_do_not_count(self):
        sim = self.make_tracking_sim()
        sim.access(0, 4, 1, Category.GLOBAL)
        sim.access(32, 4, 2, Category.GLOBAL)  # different set, no victim
        assert sim.evictions == {}

    def test_disabled_by_default(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(0, 4, 1, Category.GLOBAL)
        sim.access(1024, 4, 2, Category.GLOBAL)
        assert sim.evictions == {}

    def test_total_cross_object_excludes_self(self):
        sim = self.make_tracking_sim()
        sim.access(0, 4, 7, Category.GLOBAL)
        sim.access(1024, 4, 7, Category.GLOBAL)   # self
        sim.access(2048, 4, 8, Category.GLOBAL)   # cross
        assert total_cross_object_evictions(sim) == 1


class TestConflictRankings(_TrackingSimulator):
    def _profile(self) -> Profile:
        profile = Profile(chunk_size=256)
        profile.entities[1] = Entity(1, Category.GLOBAL, "g:hot_a", size=64)
        profile.entities[2] = Entity(2, Category.GLOBAL, "g:hot_b", size=64)
        profile.entities[3] = Entity(3, Category.GLOBAL, "g:cold", size=64)
        profile.trg = {
            ((1, 0), (2, 0)): 100,
            ((1, 0), (3, 0)): 2,
        }
        return profile

    def test_predicted_ranked_by_affinity(self):
        pairs = predicted_conflicts(self._profile())
        assert pairs[0].first == "g:hot_a"
        assert pairs[0].second == "g:hot_b"
        assert pairs[0].weight == 100
        assert pairs[1].weight == 2

    def test_predicted_respects_top(self):
        assert len(predicted_conflicts(self._profile(), top=1)) == 1

    def test_measured_symmetrizes(self):
        sim = self.make_tracking_sim()
        for _ in range(3):
            sim.access(0, 4, 1, Category.GLOBAL)
            sim.access(1024, 4, 2, Category.GLOBAL)
        pairs = measured_conflicts(sim, labels={1: "a", 2: "b"})
        assert pairs[0].weight == 5  # 3 + 2, symmetrized
        assert {pairs[0].first, pairs[0].second} == {"a", "b"}

    def test_measured_skips_self_pairs(self):
        sim = self.make_tracking_sim()
        sim.access(0, 4, 7, Category.GLOBAL)
        sim.access(1024, 4, 7, Category.GLOBAL)
        assert measured_conflicts(sim) == []

    def test_self_pairs_do_not_take_ranked_slots(self):
        """The heaviest pair is a self pair; ``top=1`` still finds a cross pair."""
        sim = self.make_tracking_sim()
        for _ in range(4):
            sim.access(0, 4, 7, Category.GLOBAL)
            sim.access(1024, 4, 7, Category.GLOBAL)
        sim.access(2048, 4, 8, Category.GLOBAL)
        assert sim.evictions == {(7, 7): 7, (8, 7): 1}
        pairs = measured_conflicts(sim, labels={7: "a", 8: "b"}, top=1)
        assert [(p.first, p.second, p.weight) for p in pairs] == [("a", "b", 1)]

    def test_render_and_report(self):
        sim_before = self.make_tracking_sim()
        sim_before.access(0, 4, 1, Category.GLOBAL)
        sim_before.access(1024, 4, 2, Category.GLOBAL)
        sim_after = self.make_tracking_sim()
        text = conflict_report(self._profile(), sim_before, sim_after)
        assert "Predicted" in text
        assert "original placement" in text
        assert "CCDP placement" in text
        assert "g:hot_a" in text


class TestEvictionTrackingBatched(TestEvictionTracking):
    simulator = staticmethod(one_reference_simulator)

    @pytest.mark.parametrize("ways", [2, 4])
    def test_associative_tracking_is_refused(self, ways):
        with pytest.raises(ValueError, match="direct-mapped"):
            BatchCacheSimulator(CacheConfig(1024, 32, ways), track_evictions=True)


class TestConflictRankingsBatched(TestConflictRankings):
    simulator = staticmethod(one_reference_simulator)
