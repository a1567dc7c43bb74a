"""Unit tests for the arena / free-list machinery."""

from __future__ import annotations

import pytest

from repro.memory.freelist import Arena, FreeBlock, HeapError


class TestArenaGrowth:
    def test_extend_returns_aligned_addresses(self):
        arena = Arena(base=0x1000)
        addr = arena.extend(100)
        assert addr == 0x1000
        addr2 = arena.extend(10)
        assert addr2 % 8 == 0
        assert addr2 >= addr + 100

    def test_extend_records_alignment_padding_as_free(self):
        arena = Arena(base=0x1000)
        arena.extend(5)  # brk now 0x1005
        arena.extend(8)  # aligns to 0x1008, 3 bytes padding
        assert arena.total_free_bytes() == 3

    def test_extend_to_cache_offset(self):
        arena = Arena(base=0x1000)
        addr = arena.extend_to_cache_offset(64, cache_offset=96, cache_size=1024)
        assert addr % 1024 == 96
        arena.mark_live(addr, 64)
        arena.check_invariants()

    def test_extend_to_cache_offset_already_aligned(self):
        arena = Arena(base=0x1000)
        # 0x1000 % 1024 == 0, so offset 0 requires no padding.
        addr = arena.extend_to_cache_offset(32, cache_offset=0, cache_size=1024)
        assert addr == 0x1000


class TestLiveness:
    def test_double_mark_rejected(self):
        arena = Arena(base=0)
        addr = arena.extend(16)
        arena.mark_live(addr, 16)
        with pytest.raises(HeapError):
            arena.mark_live(addr, 16)

    def test_release_unknown_rejected(self):
        arena = Arena(base=0)
        with pytest.raises(HeapError):
            arena.release(0x42)

    def test_release_returns_size(self):
        arena = Arena(base=0)
        addr = arena.extend(24)
        arena.mark_live(addr, 24)
        assert arena.release(addr) == 24


class TestFreeList:
    def test_coalesce_with_predecessor(self):
        arena = Arena(base=0)
        arena.brk = 100
        arena.add_free(0, 10)
        arena.add_free(10, 10)
        assert len(arena.free_blocks) == 1
        assert arena.free_blocks[0].size == 20

    def test_coalesce_with_successor(self):
        arena = Arena(base=0)
        arena.brk = 100
        arena.add_free(20, 10)
        arena.add_free(10, 10)
        assert len(arena.free_blocks) == 1
        assert arena.free_blocks[0].addr == 10

    def test_coalesce_both_sides(self):
        arena = Arena(base=0)
        arena.brk = 100
        arena.add_free(0, 10)
        arena.add_free(20, 10)
        arena.add_free(10, 10)
        assert len(arena.free_blocks) == 1
        assert arena.free_blocks[0].size == 30

    def test_overlapping_free_rejected(self):
        arena = Arena(base=0)
        arena.brk = 100
        arena.add_free(0, 20)
        with pytest.raises(HeapError):
            arena.add_free(10, 20)

    def test_zero_size_free_is_noop(self):
        arena = Arena(base=0)
        arena.add_free(0, 0)
        assert not arena.free_blocks

    def test_take_from_block_splits(self):
        arena = Arena(base=0)
        arena.brk = 100
        arena.add_free(0, 64)
        arena.take_from_block(0, 16, 16)
        sizes = sorted(b.size for b in arena.free_blocks)
        assert sizes == [16, 32]

    def test_take_whole_block(self):
        arena = Arena(base=0)
        arena.brk = 100
        arena.add_free(0, 32)
        arena.take_from_block(0, 0, 32)
        assert not arena.free_blocks

    def test_take_outside_block_rejected(self):
        arena = Arena(base=0)
        arena.brk = 100
        arena.add_free(0, 32)
        with pytest.raises(HeapError):
            arena.take_from_block(0, 16, 32)

    def test_take_stamps_remainders_with_clock(self):
        arena = Arena(base=0)
        arena.brk = 100
        arena.add_free(0, 64)
        arena.clock = 7
        arena.take_from_block(0, 16, 16)
        assert all(block.last_touch == 7 for block in arena.free_blocks)


class TestInvariants:
    def test_detects_live_overlap(self):
        arena = Arena(base=0)
        arena.brk = 100
        arena.live[0] = 16
        arena.live[8] = 16
        with pytest.raises(HeapError):
            arena.check_invariants()

    def test_detects_free_outside_bounds(self):
        arena = Arena(base=0)
        arena.brk = 10
        # free_blocks is built on read; plant the block in the arena itself.
        arena.add_free(50, 10)
        assert arena.free_blocks == [FreeBlock(50, 10)]
        with pytest.raises(HeapError, match="outside arena bounds"):
            arena.check_invariants()

    def test_clean_arena_passes(self):
        arena = Arena(base=0x1000)
        a = arena.extend(32)
        arena.mark_live(a, 32)
        b = arena.extend(32)
        arena.mark_live(b, 32)
        arena.release(a)
        arena.add_free(a, 32)
        arena.check_invariants()
