"""Unit + property tests for the classifying cache simulator.

Each unit class runs on the per-access oracle (``simulator`` is
:class:`tests.oracles.CacheSimulator`) and, through its ``Batched``
subclass, on :class:`~repro.cache.batch.BatchCacheSimulator` fed one
reference per chunk; the property tests run both.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheConfig, PAPER_CACHE
from repro.trace.events import Category
from tests.oracles import CacheSimulator, one_reference_simulator

#: The per-access oracle and the product, built with the same arguments.
SIMULATORS = (CacheSimulator, one_reference_simulator)


class TestCacheConfig:
    def test_paper_cache_geometry(self):
        assert PAPER_CACHE.size == 8192
        assert PAPER_CACHE.line_size == 32
        assert PAPER_CACHE.num_lines == 256
        assert PAPER_CACHE.num_sets == 256

    def test_associative_sets(self):
        config = CacheConfig(8192, 32, 2)
        assert config.num_sets == 128

    def test_set_index_wraps(self):
        config = CacheConfig(1024, 32, 1)
        assert config.set_index(0) == config.set_index(1024)
        assert config.set_index(32) == 1

    def test_block_addr(self):
        config = CacheConfig(1024, 32, 1)
        assert config.block_addr(37) == 32

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 32, 1)
        with pytest.raises(ValueError):
            CacheConfig(1024, 24, 1)
        with pytest.raises(ValueError):
            CacheConfig(0, 32, 1)

    def test_describe(self):
        assert CacheConfig(8192, 32, 1).describe() == "8K/32B/direct"
        assert CacheConfig(8192, 32, 4).describe() == "8K/32B/4-way"


class TestDirectMapped:
    simulator = CacheSimulator

    def test_first_access_misses(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        assert sim.access(0, 4, 1, Category.GLOBAL) is True

    def test_repeat_access_hits(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(0, 4, 1, Category.GLOBAL)
        assert sim.access(4, 4, 1, Category.GLOBAL) is False

    def test_aliasing_addresses_conflict(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(0, 4, 1, Category.GLOBAL)
        sim.access(1024, 4, 2, Category.GLOBAL)
        assert sim.access(0, 4, 1, Category.GLOBAL) is True

    def test_spanning_access_touches_two_blocks(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(30, 4, 1, Category.GLOBAL)
        assert sim.stats.accesses == 2
        assert sim.stats.misses == 2

    def test_miss_attribution_by_category(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(0, 4, 1, Category.STACK)
        sim.access(2048, 4, 2, Category.HEAP)
        assert sim.stats.misses_by_category[Category.STACK] == 1
        assert sim.stats.misses_by_category[Category.HEAP] == 1
        assert sim.stats.misses_by_category[Category.GLOBAL] == 0

    def test_miss_attribution_by_object(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(0, 4, 7, Category.GLOBAL)
        sim.access(0, 4, 7, Category.GLOBAL)
        assert sim.stats.accesses_by_object[7] == 2
        assert sim.stats.misses_by_object[7] == 1
        assert sim.stats.object_miss_rate(7) == pytest.approx(50.0)

    def test_miss_rate_percent(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(0, 4, 1, Category.GLOBAL)
        sim.access(0, 4, 1, Category.GLOBAL)
        assert sim.stats.miss_rate == pytest.approx(50.0)

    def test_category_rates_sum_to_total(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        for index in range(200):
            sim.access(index * 64, 4, index % 5, Category(index % 4))
        total = sum(
            sim.stats.category_miss_rate(category) for category in Category
        )
        assert total == pytest.approx(sim.stats.miss_rate)


class TestSetAssociative:
    simulator = CacheSimulator

    def test_two_way_tolerates_one_alias(self):
        sim = self.simulator(CacheConfig(1024, 32, 2))
        sim.access(0, 4, 1, Category.GLOBAL)
        sim.access(512, 4, 2, Category.GLOBAL)  # same set, second way
        assert sim.access(0, 4, 1, Category.GLOBAL) is False

    def test_lru_eviction(self):
        sim = self.simulator(CacheConfig(1024, 32, 2))
        sim.access(0, 4, 1, Category.GLOBAL)      # A
        sim.access(512, 4, 2, Category.GLOBAL)    # B
        sim.access(0, 4, 1, Category.GLOBAL)      # touch A (B is LRU)
        sim.access(1024, 4, 3, Category.GLOBAL)   # C evicts B
        assert sim.access(0, 4, 1, Category.GLOBAL) is False   # A still in
        assert sim.access(512, 4, 2, Category.GLOBAL) is True  # B evicted

    def test_fully_associative_behaves_as_lru(self):
        config = CacheConfig(128, 32, 4)  # one set of 4 ways
        sim = self.simulator(config)
        for block in range(4):
            sim.access(block * 32, 4, block, Category.GLOBAL)
        sim.access(4 * 32, 4, 9, Category.GLOBAL)  # evicts block 0
        assert sim.access(0, 4, 0, Category.GLOBAL) is True


class TestClassification:
    simulator = CacheSimulator

    def test_first_touch_is_compulsory(self):
        sim = self.simulator(CacheConfig(1024, 32, 1), classify=True)
        sim.access(0, 4, 1, Category.GLOBAL)
        assert sim.stats.compulsory == 1

    def test_alias_pingpong_is_conflict(self):
        sim = self.simulator(CacheConfig(1024, 32, 1), classify=True)
        sim.access(0, 4, 1, Category.GLOBAL)
        sim.access(1024, 4, 2, Category.GLOBAL)
        sim.access(0, 4, 1, Category.GLOBAL)
        # third access: non-compulsory, would hit fully associatively.
        assert sim.stats.conflict == 1
        assert sim.stats.capacity == 0

    def test_working_set_overflow_is_capacity(self):
        config = CacheConfig(128, 32, 1)  # 4 lines
        sim = self.simulator(config, classify=True)
        blocks = 8
        for sweep in range(2):
            for block in range(blocks):
                sim.access(block * 32, 4, block, Category.GLOBAL)
        assert sim.stats.capacity > 0

    def test_classes_partition_misses(self):
        sim = self.simulator(CacheConfig(256, 32, 1), classify=True)
        for index in range(500):
            sim.access((index * 37) % 2048, 4, index % 7, Category.GLOBAL)
        stats = sim.stats
        assert stats.compulsory + stats.conflict + stats.capacity == stats.misses


@given(
    st.lists(
        st.tuples(st.integers(0, 4095), st.integers(0, 3)),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=50, deadline=None)
def test_classification_always_partitions(accesses):
    for simulator in SIMULATORS:
        sim = simulator(CacheConfig(256, 32, 1), classify=True)
        for addr, cat in accesses:
            sim.access(addr, 4, addr // 32, Category(cat))
        stats = sim.stats
        assert stats.compulsory + stats.conflict + stats.capacity == stats.misses
        assert stats.misses <= stats.accesses


@given(
    st.lists(st.integers(0, 8191), min_size=1, max_size=300),
    st.integers(1, 3).map(lambda p: 2**p),
)
@settings(max_examples=40, deadline=None)
def test_lru_inclusion_bigger_cache_same_associativity(addrs, assoc):
    """Doubling an LRU cache's sets never adds misses (LRU inclusion).

    The inclusion property holds between caches with the same
    associativity where the larger cache's set index refines the smaller
    one's — the classic justification for single-pass multi-size cache
    simulation.
    """
    for simulator in SIMULATORS:
        small = simulator(CacheConfig(512, 32, assoc))
        large = simulator(CacheConfig(1024, 32, assoc))
        for addr in addrs:
            small.access(addr, 4, 0, Category.GLOBAL)
            large.access(addr, 4, 0, Category.GLOBAL)
        assert large.stats.misses <= small.stats.misses


class TestWriteBack:
    simulator = CacheSimulator

    def test_clean_eviction_no_writeback(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(0, 4, 1, Category.GLOBAL, is_store=False)
        sim.access(1024, 4, 2, Category.GLOBAL, is_store=False)
        assert sim.stats.writebacks == 0

    def test_dirty_eviction_writes_back(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(0, 4, 1, Category.GLOBAL, is_store=True)
        sim.access(1024, 4, 2, Category.GLOBAL, is_store=False)
        assert sim.stats.writebacks == 1

    def test_store_hit_dirties_line(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(0, 4, 1, Category.GLOBAL, is_store=False)  # clean fill
        sim.access(4, 4, 1, Category.GLOBAL, is_store=True)   # dirty on hit
        sim.access(1024, 4, 2, Category.GLOBAL, is_store=False)
        assert sim.stats.writebacks == 1

    def test_refill_resets_dirty_state(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(0, 4, 1, Category.GLOBAL, is_store=True)
        sim.access(1024, 4, 2, Category.GLOBAL, is_store=False)  # wb #1
        sim.access(0, 4, 1, Category.GLOBAL, is_store=False)     # clean refill
        sim.access(1024, 4, 2, Category.GLOBAL, is_store=False)
        assert sim.stats.writebacks == 1  # second eviction was clean

    def test_associative_dirty_lru_eviction(self):
        sim = self.simulator(CacheConfig(1024, 32, 2))
        sim.access(0, 4, 1, Category.GLOBAL, is_store=True)    # way 1, dirty
        sim.access(512, 4, 2, Category.GLOBAL, is_store=False)  # way 2
        sim.access(1024, 4, 3, Category.GLOBAL, is_store=False)  # evict dirty LRU
        assert sim.stats.writebacks == 1

    def test_memory_traffic_blocks(self):
        sim = self.simulator(CacheConfig(1024, 32, 1))
        sim.access(0, 4, 1, Category.GLOBAL, is_store=True)
        sim.access(1024, 4, 2, Category.GLOBAL, is_store=False)
        stats = sim.stats
        assert stats.memory_traffic_blocks == stats.misses + stats.writebacks == 3


class TestDirectMappedBatched(TestDirectMapped):
    simulator = staticmethod(one_reference_simulator)


class TestSetAssociativeBatched(TestSetAssociative):
    simulator = staticmethod(one_reference_simulator)


class TestClassificationBatched(TestClassification):
    simulator = staticmethod(one_reference_simulator)


class TestWriteBackBatched(TestWriteBack):
    simulator = staticmethod(one_reference_simulator)
