"""Unit tests for the placement address resolvers.

Each case resolves a small hand-built recording with
:meth:`TraceRecorder.resolve_bases`; ``bases[i]`` is object ``i``'s
address and ``died[i]`` the position its life ended.
"""

from __future__ import annotations

import pytest

from repro.cache.config import CacheConfig
from repro.core.placement_map import HeapDecision, PlacementMap
from repro.memory.layout import DATA_BASE, STACK_BASE, TEXT_BASE
from repro.naming.xor import xor_fold
from repro.runtime.resolvers import (
    CCDPResolver,
    NaturalResolver,
    RandomResolver,
)
from repro.trace.buffer import TraceRecorder
from repro.trace.events import Category, ObjectInfo, STACK_OBJECT_ID, TraceError
from tests.oracles import scalar_resolve_bases


def global_info(obj_id, size, symbol, decl=0):
    return ObjectInfo(obj_id, Category.GLOBAL, size, symbol, decl)


def heap_info(obj_id, size):
    return ObjectInfo(obj_id, Category.HEAP, size, f"h#{obj_id}")


def recording(*ops) -> TraceRecorder:
    """A finished recording of lifetime ops, one access apart.

    Each op is ``("object", info)``, ``("alloc", info, return_addresses)``
    or ``("free", obj_id)``; op ``k`` is recorded at position ``k``.
    """
    recorder = TraceRecorder()
    for kind, *args in ops:
        getattr(recorder, f"on_{kind}")(*args)
        recorder.on_access(STACK_OBJECT_ID, 0, 4, False, Category.STACK)
    recorder.on_end()
    return recorder


def bases(resolver, *ops) -> list[int]:
    """Every object's base address, checked against the per-op twin."""
    trace = recording(*ops)
    resolved = trace.resolve_bases(resolver)
    oracle = scalar_resolve_bases(trace, resolver)
    assert resolved.bases.tolist() == oracle.bases.tolist()
    assert resolved.born.tolist() == oracle.born.tolist()
    assert resolved.died.tolist() == oracle.died.tolist()
    return resolved.bases.tolist()


class TestNaturalResolver:
    def test_globals_sequential_in_declaration_order(self):
        addrs = bases(
            NaturalResolver(),
            ("object", global_info(1, 100, "a")),
            ("object", global_info(2, 50, "b")),
        )
        assert addrs[1] == DATA_BASE
        assert addrs[2] == DATA_BASE + 104  # aligned

    def test_constants_in_text_segment(self):
        constant = ObjectInfo(1, Category.CONST, 16, "c")
        addrs = bases(NaturalResolver(), ("object", constant))
        assert addrs[1] == TEXT_BASE

    def test_stack_at_default_base(self):
        assert bases(NaturalResolver())[STACK_OBJECT_ID] == STACK_BASE

    def test_heap_first_fit_reuses_lowest(self):
        addrs = bases(
            NaturalResolver(),
            ("alloc", heap_info(1, 32), ()),
            ("alloc", heap_info(2, 32), ()),
            ("free", 1),
            ("alloc", heap_info(3, 16), ()),
        )
        assert addrs[3] == addrs[1]

    def test_free_removes_mapping(self):
        """A freed object's life ends at its free: later accesses are corrupt."""
        trace = recording(("alloc", heap_info(1, 32), ()), ("free", 1))
        resolved = trace.resolve_bases(NaturalResolver())
        assert (resolved.born[1], resolved.died[1]) == (0, 1)


class TestRandomResolver:
    def test_deterministic_given_seed(self):
        ops = (("object", global_info(1, 64, "a")), ("alloc", heap_info(2, 32), ()))
        first = bases(RandomResolver(seed=7), *ops)
        second = bases(RandomResolver(seed=7), *ops)
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_different_seeds_differ(self):
        ops = [("object", global_info(i + 1, 64, f"g{i}")) for i in range(8)]
        first = bases(RandomResolver(seed=1), *ops)
        second = bases(RandomResolver(seed=2), *ops)
        assert first[1:9] != second[1:9]

    def test_stack_stays_natural(self):
        # The paper randomizes globals and heap only.
        assert bases(RandomResolver(seed=3))[STACK_OBJECT_ID] == STACK_BASE

    def test_globals_remain_disjoint(self):
        infos = [global_info(i + 1, 64 + i * 8, f"g{i}") for i in range(20)]
        addrs = bases(RandomResolver(seed=5), *[("object", info) for info in infos])
        spans = sorted(
            (addrs[info.obj_id], addrs[info.obj_id] + info.size) for info in infos
        )
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_one_resolver_resolves_every_recording_alike(self):
        resolver = RandomResolver(seed=11)
        ops = (("object", global_info(1, 64, "a")), ("alloc", heap_info(2, 32), ()))
        assert bases(resolver, *ops) == bases(resolver, *ops)


class TestCCDPResolver:
    def _placement(self) -> PlacementMap:
        config = CacheConfig(1024, 32, 1)
        placement = PlacementMap(cache_config=config)
        placement.data_base = DATA_BASE + 96
        placement.global_offsets = {"a": 0, "b": 512}
        placement.stack_base = STACK_BASE + 256
        name = xor_fold((0x10, 0x20, 0x30, 0x40))
        placement.heap_table[name] = HeapDecision(bin_tag=2, preferred_offset=128)
        return placement

    def test_globals_at_placed_addresses(self):
        addrs = bases(
            CCDPResolver(self._placement()), ("object", global_info(1, 64, "b"))
        )
        assert addrs[1] == DATA_BASE + 96 + 512

    def test_unknown_global_goes_to_fallback(self):
        # No twin check: the per-op twin falls back past the largest offset.
        trace = recording(("object", global_info(1, 64, "unseen")))
        addrs = trace.resolve_bases(CCDPResolver(self._placement())).bases
        assert addrs[1] > DATA_BASE + 96 + 512

    def test_fallback_starts_past_the_end_of_the_placed_globals(self):
        """A 96 KB placed global: the unseen one goes 64 KB past its end."""
        placement = PlacementMap(cache_config=CacheConfig(8192, 32, 1))
        placement.data_base = DATA_BASE
        placement.global_offsets = {"big": 0}
        trace = recording(
            ("object", global_info(1, 98_304, "big")),
            ("object", global_info(2, 64, "unseen")),
        )
        addrs = trace.resolve_bases(CCDPResolver(placement)).bases
        assert addrs[1] == DATA_BASE
        assert addrs[2] == DATA_BASE + 98_304 + 65_536
        assert addrs[2] >= addrs[1] + 98_304

    def test_stack_at_placed_base(self):
        addrs = bases(CCDPResolver(self._placement()))
        assert addrs[STACK_OBJECT_ID] == STACK_BASE + 256

    def test_heap_honours_preferred_offset(self):
        addrs = bases(
            CCDPResolver(self._placement()),
            ("alloc", heap_info(5, 48), (0x10, 0x20, 0x30, 0x40)),
        )
        assert addrs[5] % 1024 == 128

    def test_unknown_name_uses_default_free_list(self):
        addrs = bases(
            CCDPResolver(self._placement()),
            ("alloc", heap_info(5, 48), (0x99,)),
            ("alloc", heap_info(6, 48), (0x99,)),
        )
        # Default bin: sequential allocations land near each other.
        assert abs(addrs[6] - addrs[5]) < 4096

    def test_free_and_reallocate(self):
        addrs = bases(
            CCDPResolver(self._placement()),
            ("alloc", heap_info(5, 48), (0x10, 0x20, 0x30, 0x40)),
            ("free", 5),
            ("alloc", heap_info(6, 48), (0x10, 0x20, 0x30, 0x40)),
        )
        # Same name, preferred offset satisfied again (likely same spot).
        assert addrs[6] % 1024 == 128
        assert addrs[5] % 1024 == 128


class TestCompactHeapResolver:
    def test_compact_heap_uses_first_fit(self):
        placement = PlacementMap(cache_config=CacheConfig(1024, 32, 1))
        placement.data_base = DATA_BASE
        placement.stack_base = STACK_BASE
        addrs = bases(
            CCDPResolver(placement, compact_heap=True),
            ("alloc", heap_info(1, 32), (0x1,)),
            ("alloc", heap_info(2, 32), (0x1,)),
            ("free", 1),
            ("alloc", heap_info(3, 16), (0x1,)),
        )
        assert addrs[2] == addrs[1] + 32  # packed, no bins or pads
        assert addrs[3] == addrs[1]  # first-fit reuse


@pytest.mark.parametrize(
    "resolver",
    [NaturalResolver(), RandomResolver(seed=3), "ccdp"],
    ids=["natural", "random", "ccdp"],
)
@pytest.mark.parametrize("freed", [1, STACK_OBJECT_ID], ids=["global", "stack"])
def test_free_of_a_static_is_a_corrupt_trace(resolver, freed):
    if resolver == "ccdp":
        resolver = CCDPResolver(PlacementMap(cache_config=CacheConfig(1024, 32, 1)))
    trace = recording(("object", global_info(1, 64, "a")), ("free", freed))
    with pytest.raises(
        TraceError, match=f"free of non-heap object id {freed} at position 1"
    ):
        trace.resolve_bases(resolver)
