"""Per-event reference pipelines: the oracles the parity suites check against.

The product records every run into a
:class:`~repro.trace.buffer.TraceRecorder` and computes from its
columns with vectorized kernels only: :func:`repro.runtime.driver.measure`,
the two-level hierarchy and the conflict debugger simulate the trace with
:class:`~repro.cache.batch.BatchCacheSimulator` at addresses each
resolver computes from the recording's lifetime walk in one call,
profiles come from :func:`~repro.profiling.batch.profile_trace` (sampled
ones from :func:`~repro.profiling.sampling.sampled_profile`), Table 1
statistics from :meth:`~repro.trace.buffer.TraceRecorder.stats`, and
:class:`~repro.core.algorithm.CCDPPlacer` runs its conflict scans on the
:class:`~repro.core.placement_engine.ArrayPlacementEngine`.  This module
keeps the per-event twins those kernels must equal bit for bit:

* the per-event consumers themselves: :class:`ProfilerSink` (the product's
  :class:`~repro.profiling.profiler.EntityNamer` plus a per-access Name
  profile and :class:`TRGBuilder`, the recency queue one reference at a
  time), :class:`SamplingProfilerSink` (the same with the queue fed
  inside periodic windows only), :class:`StatsSink` (Table 1 counters
  per event) and :class:`RecordingSink` (the stream as :class:`Access`,
  :class:`Alloc` and :class:`Free` records, replayed with validation);
* the per-access cache simulators: :class:`CacheSimulator` (LRU sets, the
  three-Cs shadow and the direct-mapped eviction matrix, one reference at
  a time), :class:`ScalarTwoLevelCache` (an L1/L2 pair of them, the twin
  of :class:`~repro.cache.hierarchy.TwoLevelCache`), :class:`ScalarPageTracker`
  (pages one reference at a time) and :class:`ReplaySink`, which drives
  them from a live run under a per-op resolver; :class:`OneReferenceChunks`
  feeds the product simulators one reference per chunk so unit cases run
  against both;
* the per-op address resolvers: :class:`ScalarNaturalResolver`,
  :class:`ScalarRandomResolver` and :class:`ScalarCCDPResolver` (one
  resolver call per lifetime op, the twins of the product resolvers,
  built from a product resolver by :func:`scalar_resolver` and replayed
  over a recording by :func:`scalar_resolve_bases`), over the
  sort-based heaps :class:`ScalarFirstFitAllocator`,
  :class:`SortedTemporalFitAllocator` and :class:`ScalarBinnedHeap`
  (one :class:`FreeBlock` list per :class:`ScalarArena`, sorted by last
  touch on every temporal-fit allocation);
* :func:`scalar_measure` — the live run through :class:`ReplaySink` into
  the per-event :class:`CacheSimulator` (and :class:`ScalarPageTracker`);
* :func:`scalar_profile` — the live run through :class:`ProfilerSink`;
* :func:`scalar_window_profile` — a recorded trace cut after its first
  accesses, replayed through :class:`ProfilerSink` (the twin of
  :func:`~repro.adaptive.windows.window_profile`);
* :func:`scalar_window_trg` — one window's references fed to
  :class:`TRGBuilder` one by one (the twin of
  :func:`~repro.adaptive.windows.window_trg`);
* :func:`scalar_popularity` — Phase 0 popularity by one loop over the
  edge dict (the twin of the column reduction behind
  :meth:`~repro.profiling.profile_data.Profile.popularity`; the affinity
  twin is :func:`repro.profiling.trg.entity_affinity`);
* :class:`ScalarPlacer` — a :class:`CCDPPlacer` whose Phase 2 and
  Phase 6 run on :class:`CacheImage`, :func:`conflict_cost_scan` and
  :class:`CompoundMerger`;
* :func:`scalar_fix_placed` and :func:`scalar_drift_score` — the
  adaptive engine's live spans fixed entity by entity (the twins of
  :meth:`~repro.core.placement_engine.ArrayPlacementEngine.fix_placed`
  and the engine's drift score).

pytest does not collect this module (no ``test_`` prefix); tests import
it as ``tests.oracles``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import random

import numpy as np

from repro.analysis.paging import PageTracker, PagingSummary
from repro.cache.batch import BatchCacheSimulator
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import DEFAULT_L2, HierarchyStats, TwoLevelCache
from repro.cache.simulator import CacheStats
from repro.core.algorithm import CCDPPlacer
from repro.core.cache_struct import (
    CacheImage,
    active_chunks_by_entity,
    build_adjacency,
    conflict_cost_scan,
)
from repro.core.compound import CompoundMerger, CompoundNode
from repro.core.placement_engine import FIXED, ArrayPlacementEngine
from repro.core.placement_map import PlacementMap
from repro.memory.freelist import DEFAULT_ALIGNMENT, FreeBlock, HeapError
from repro.memory.layout import (
    DATA_BASE,
    HEAP_BASE,
    HEAP_BIN_STRIDE,
    STACK_BASE,
    TEXT_BASE,
    align_up,
)
from repro.memory.static_layout import layout_sequential
from repro.naming.xor import DEFAULT_NAME_DEPTH, xor_fold
from repro.obs import telemetry as obs
from repro.profiling.profile_data import STACK_ENTITY_ID, Profile
from repro.profiling.profiler import EntityNamer
from repro.profiling.sampling import DEFAULT_PERIOD, DEFAULT_WINDOW
from repro.profiling.trg import DEFAULT_CHUNK_SIZE, EdgeKey, PairKey, entity_affinity
from repro.runtime.driver import MeasureResult
from repro.runtime.resolvers import (
    FALLBACK_GAP,
    CCDPResolver,
    NaturalResolver,
    RandomResolver,
)
from repro.trace.buffer import (
    _NEVER,
    _OP_ALLOC,
    _OP_FREE,
    _OP_OBJECT,
    ResolvedBases,
    TraceRecorder,
)
from repro.trace.events import Category, ObjectInfo, STACK_OBJECT_ID, TraceError
from repro.trace.sinks import TraceSink
from repro.trace.stats import WorkloadStats

#: ``Category`` members indexed by value, for int -> enum conversion.
_CATEGORIES = tuple(Category)


# -- the per-event consumers ---------------------------------------------------


class TRGBuilder:
    """Incremental TRGplace construction over (entity, chunk) pairs.

    The recency queue is an :class:`~collections.OrderedDict` mapping each
    queued ``(entity, chunk)`` pair to its accounted byte size, ordered
    oldest-first (the *front* of the paper's queue ``Q`` is the dict's
    tail).  Membership tests, front insertion, removal, and tail eviction
    are all O(1); a hit at queue position ``p`` walks only the ``p``
    entries in front of it (via reverse iteration), which is exactly the
    number of edges it must increment.
    """

    def __init__(self, queue_threshold: int, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if queue_threshold <= 0:
            raise ValueError(f"queue threshold must be positive: {queue_threshold}")
        if chunk_size <= 0:
            raise ValueError(f"chunk size must be positive: {chunk_size}")
        self.queue_threshold = queue_threshold
        self.chunk_size = chunk_size
        self.edges: dict[EdgeKey, int] = {}
        #: Entries dropped from the queue tail over the threshold bound.
        self.evictions = 0
        #: key -> entry_bytes, ordered oldest (first) to most recent (last).
        self._queue: OrderedDict[PairKey, int] = OrderedDict()
        self._front: PairKey | None = None
        self._queued_bytes = 0

    def observe(self, eid: int, chunk: int, entry_bytes: int) -> None:
        """Record one reference to chunk ``chunk`` of entity ``eid``.

        ``entry_bytes`` is the bytes this queue entry accounts for: the
        chunk size, or the entity size when smaller.
        """
        key = (eid, chunk)
        if key == self._front:
            # Repeated references to the same chunk create no temporal
            # relationships and no queue movement.
            return
        queue = self._queue
        old_bytes = queue.get(key)
        if old_bytes is not None:
            # Increment the edge to every entry between the front and the
            # hit position: each was referenced between two references to
            # `key`, so each would evict `key` in a shared cache line.
            edges = self.edges
            for other in reversed(queue):
                if other == key:
                    break
                edge = (key, other) if key <= other else (other, key)
                edges[edge] = edges.get(edge, 0) + 1
            queue.move_to_end(key)
            self._queued_bytes -= old_bytes
        queue[key] = entry_bytes
        self._front = key
        self._queued_bytes += entry_bytes
        while self._queued_bytes > self.queue_threshold and len(queue) > 1:
            _evicted, evicted_bytes = queue.popitem(last=False)
            self._queued_bytes -= evicted_bytes
            self.evictions += 1

    @property
    def queue_length(self) -> int:
        """Number of (entity, chunk) pairs currently queued."""
        return len(self._queue)

    @property
    def queued_bytes(self) -> int:
        """Total bytes accounted to queued entries."""
        return self._queued_bytes


class ProfilerSink(EntityNamer):
    """The per-event profiler: the product's namer plus a per-access TRG."""

    def __init__(self, **profiler_kwargs):
        super().__init__(**profiler_kwargs)
        self._trg = TRGBuilder(self._profile.queue_threshold, self.chunk_size)
        self._clock = 0

    def on_access(self, obj_id, offset, size, is_store, category) -> None:
        eid, entity = self._note_access(obj_id, offset)
        chunk = offset // self.chunk_size
        entry_bytes = self.chunk_size
        if entity.size and entity.size < self.chunk_size:
            entry_bytes = entity.size
        self._trg.observe(eid, chunk, entry_bytes)

    def _note_access(self, obj_id: int, offset: int):
        """Tick the clock and the entity's reference count and lifetime.

        Rejects a negative offset as the recorded path does
        (``trace.buffer.check_offsets``).  Returns ``(eid, entity)``.
        """
        if offset < 0:
            raise TraceError(
                f"corrupt trace: negative offset {offset} into object id "
                f"{obj_id} at position {self._clock}"
            )
        eid = self._entity_of_object[obj_id]
        entity = self._profile.entities[eid]
        self._clock += 1
        entity.refs += 1
        if entity.first_access is None:
            entity.first_access = self._clock
        entity.last_access = self._clock
        return eid, entity

    def on_end(self) -> None:
        self._profile.trg = self._trg.edges
        self._profile.total_accesses = self._clock
        obs.count("profile.events", self._clock)
        obs.count("profile.trg_edges", len(self._trg.edges))
        # An alternate TRG builder (the queue suite swaps one in) may not
        # track evictions; report zero rather than requiring the field.
        obs.count("profile.queue_evictions", getattr(self._trg, "evictions", 0))


class SamplingProfilerSink(ProfilerSink):
    """The per-event sampled profiler: the TRG fed inside periodic windows.

    The first ``window`` references of every ``period`` feed the queue;
    the Name profile sees them all.  Edge weights are scaled by the
    inverse sampling ratio at the end of the run.
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        period: int = DEFAULT_PERIOD,
        **profiler_kwargs,
    ):
        if window <= 0 or period < window:
            raise ValueError(
                f"need 0 < window <= period, got window={window} period={period}"
            )
        super().__init__(**profiler_kwargs)
        self.window = window
        self.period = period
        self._position = 0
        self.sampled_accesses = 0

    def on_access(self, obj_id, offset, size, is_store, category) -> None:
        position = self._position
        self._position = (position + 1) % self.period
        if position < self.window:
            self.sampled_accesses += 1
            super().on_access(obj_id, offset, size, is_store, category)
            return
        self._note_access(obj_id, offset)

    def on_end(self) -> None:
        super().on_end()
        if self.sampled_accesses == 0 or self._clock == 0:
            return
        factor = self._clock / self.sampled_accesses
        if factor <= 1.0:
            return
        profile = self._profile
        profile.trg = {
            edge: max(1, round(weight * factor))
            for edge, weight in profile.trg.items()
        }

    @property
    def sampling_ratio(self) -> float:
        """Fraction of references that fed the TRG."""
        if self._clock == 0:
            return 0.0
        return self.sampled_accesses / self._clock


class StatsSink(TraceSink):
    """Table 1 counters accumulated event by event."""

    def __init__(self) -> None:
        self.stats = WorkloadStats()
        # The stack is always present even before its first access.
        self.stats.object_sizes[STACK_OBJECT_ID] = 0
        self.stats.object_categories[STACK_OBJECT_ID] = Category.STACK

    def on_object(self, info: ObjectInfo) -> None:
        self.stats.object_sizes[info.obj_id] = info.size
        self.stats.object_categories[info.obj_id] = info.category

    def on_access(self, obj_id, offset, size, is_store, category) -> None:
        stats = self.stats
        stats.instructions += 1
        if is_store:
            stats.stores += 1
        else:
            stats.loads += 1
        stats.refs_by_category[category] += 1
        refs = stats.refs_by_object
        refs[obj_id] = refs.get(obj_id, 0) + 1

    def on_alloc(self, info: ObjectInfo, return_addresses) -> None:
        stats = self.stats
        stats.alloc_count += 1
        stats.alloc_bytes += info.size
        stats.object_sizes[info.obj_id] = info.size
        stats.object_categories[info.obj_id] = Category.HEAP

    def on_free(self, obj_id: int) -> None:
        stats = self.stats
        stats.free_count += 1
        stats.free_bytes += stats.object_sizes.get(obj_id, 0)

    def on_compute(self, instructions: int) -> None:
        self.stats.instructions += instructions

    def on_stack_depth(self, depth: int) -> None:
        stats = self.stats
        if depth > stats.max_stack_depth:
            stats.max_stack_depth = depth
            stats.object_sizes[STACK_OBJECT_ID] = depth


@dataclass(slots=True)
class Access:
    """A load or a store of ``size`` bytes at ``offset`` within an object."""

    obj_id: int
    offset: int
    size: int
    is_store: bool
    category: Category


@dataclass(slots=True)
class Alloc:
    """A heap allocation with the return addresses active at its site."""

    info: ObjectInfo
    return_addresses: tuple[int, ...] = field(default_factory=tuple)


@dataclass(slots=True)
class Free:
    """A heap deallocation."""

    obj_id: int


class RecordingSink(TraceSink):
    """The full event stream as per-event records, in memory."""

    def __init__(self) -> None:
        self.objects: list[ObjectInfo] = []
        self.events: list[object] = []
        self.max_stack_depth = 0
        self.ended = False

    def on_object(self, info: ObjectInfo) -> None:
        self.objects.append(info)

    def on_access(self, obj_id, offset, size, is_store, category) -> None:
        self.events.append(Access(obj_id, offset, size, is_store, category))

    def on_alloc(self, info, return_addresses) -> None:
        self.events.append(Alloc(info, tuple(return_addresses)))

    def on_free(self, obj_id) -> None:
        self.events.append(Free(obj_id))

    def on_stack_depth(self, depth) -> None:
        self.max_stack_depth = max(self.max_stack_depth, depth)

    def on_end(self) -> None:
        self.ended = True

    def replay(self, sink: TraceSink) -> None:
        """Feed the recorded stream into another sink.

        The stream is validated while replaying: an access or free of an
        object id that was never declared or allocated raises
        :class:`TraceError` before the event reaches ``sink``.
        """
        known = {STACK_OBJECT_ID}
        for info in self.objects:
            known.add(info.obj_id)
            sink.on_object(info)
        for event in self.events:
            if type(event) is Access:
                if event.obj_id not in known:
                    raise TraceError(
                        f"corrupt trace: access to unknown object id "
                        f"{event.obj_id} (never declared or allocated)"
                    )
                sink.on_access(
                    event.obj_id,
                    event.offset,
                    event.size,
                    event.is_store,
                    event.category,
                )
            elif type(event) is Alloc:
                known.add(event.info.obj_id)
                sink.on_alloc(event.info, event.return_addresses)
            else:
                if event.obj_id not in known:
                    raise TraceError(
                        f"corrupt trace: free of unknown object id "
                        f"{event.obj_id} (never declared or allocated)"
                    )
                sink.on_free(event.obj_id)
        if self.max_stack_depth:
            sink.on_stack_depth(self.max_stack_depth)
        sink.on_end()


# -- the per-op address resolvers ----------------------------------------------


class ScalarArena:
    """The free list as one :class:`FreeBlock` list, sorted by address.

    The reference for :class:`repro.memory.freelist.Arena`: the same
    coalescing, clock stamps and errors, with blocks replaced wholesale.
    """

    def __init__(self, base: int):
        self.base = base
        self.brk = base
        self.free_blocks: list[FreeBlock] = []
        self.live: dict[int, int] = {}
        self.clock = 0

    def extend(self, size: int, align_to: int = DEFAULT_ALIGNMENT) -> int:
        addr = -(-self.brk // align_to) * align_to
        if addr > self.brk:
            self._insert_free(FreeBlock(self.brk, addr - self.brk, self.clock))
        self.brk = addr + size
        return addr

    def extend_to_cache_offset(
        self, size: int, cache_offset: int, cache_size: int
    ) -> int:
        addr = -(-self.brk // DEFAULT_ALIGNMENT) * DEFAULT_ALIGNMENT
        addr += (cache_offset - addr) % cache_size
        if addr > self.brk:
            self._insert_free(FreeBlock(self.brk, addr - self.brk, self.clock))
        self.brk = addr + size
        return addr

    def mark_live(self, addr: int, size: int) -> None:
        if addr in self.live:
            raise HeapError(f"allocation at 0x{addr:x} already live")
        self.live[addr] = size
        self.clock += 1

    def release(self, addr: int) -> int:
        size = self.live.pop(addr, None)
        if size is None:
            raise HeapError(f"free of unallocated address 0x{addr:x}")
        self.clock += 1
        return size

    def take_from_block(self, index: int, addr: int, size: int) -> None:
        block = self.free_blocks[index]
        if addr < block.addr or addr + size > block.end:
            raise HeapError(
                f"carve [{addr:#x},{addr + size:#x}) outside free block "
                f"[{block.addr:#x},{block.end:#x})"
            )
        replacements = []
        if addr > block.addr:
            replacements.append(FreeBlock(block.addr, addr - block.addr, self.clock))
        if addr + size < block.end:
            replacements.append(
                FreeBlock(addr + size, block.end - (addr + size), self.clock)
            )
        self.free_blocks[index : index + 1] = replacements

    def add_free(self, addr: int, size: int) -> None:
        if size <= 0:
            return
        self._insert_free(FreeBlock(addr, size, self.clock))

    def _insert_free(self, block: FreeBlock) -> None:
        blocks = self.free_blocks
        lo = 0
        while lo < len(blocks) and blocks[lo].addr < block.addr:
            lo += 1
        if lo > 0 and blocks[lo - 1].end > block.addr:
            raise HeapError(
                f"free block [{block.addr:#x},{block.end:#x}) overlaps "
                f"predecessor ending at {blocks[lo - 1].end:#x}"
            )
        if lo < len(blocks) and block.end > blocks[lo].addr:
            raise HeapError(
                f"free block [{block.addr:#x},{block.end:#x}) overlaps "
                f"successor at {blocks[lo].addr:#x}"
            )
        if lo > 0 and blocks[lo - 1].end == block.addr:
            prev = blocks.pop(lo - 1)
            block = FreeBlock(prev.addr, prev.size + block.size, self.clock)
            lo -= 1
        if lo < len(blocks) and blocks[lo].addr == block.end:
            nxt = blocks.pop(lo)
            block = FreeBlock(block.addr, block.size + nxt.size, self.clock)
        blocks.insert(lo, block)


class ScalarFirstFitAllocator:
    """Address-ordered first fit over a :class:`ScalarArena`."""

    def __init__(self, base: int = HEAP_BASE):
        self.arena = ScalarArena(base)

    def allocate(self, size: int, alignment: int = DEFAULT_ALIGNMENT) -> int:
        if size <= 0:
            raise HeapError(f"allocation size must be positive, got {size}")
        size = align_up(size, alignment)
        for index, block in enumerate(self.arena.free_blocks):
            addr = align_up(block.addr, alignment)
            if addr + size <= block.end:
                self.arena.take_from_block(index, addr, size)
                self.arena.mark_live(addr, size)
                return addr
        addr = self.arena.extend(size, alignment)
        self.arena.mark_live(addr, size)
        return addr

    def free(self, addr: int) -> None:
        self.arena.add_free(addr, self.arena.release(addr))


class SortedTemporalFitAllocator:
    """Temporal fit that sorts the free list by last touch per allocation.

    The reference for :class:`repro.memory.allocators.TemporalFitAllocator`,
    whose arena keeps that order standing instead.
    """

    def __init__(self, base: int, cache_size: int):
        if cache_size <= 0:
            raise HeapError(f"cache size must be positive, got {cache_size}")
        self.arena = ScalarArena(base)
        self.cache_size = cache_size

    def allocate(
        self,
        size: int,
        preferred_offset: int | None = None,
        alignment: int = DEFAULT_ALIGNMENT,
    ) -> int:
        if size <= 0:
            raise HeapError(f"allocation size must be positive, got {size}")
        size = align_up(size, alignment)
        arena = self.arena
        blocks = arena.free_blocks
        # Most-recent-first; ties scan in address order (ascending index).
        order = sorted((-b.last_touch, i) for i, b in enumerate(blocks))
        if preferred_offset is not None:
            preferred_offset %= self.cache_size
            for _neg_touch, index in order:
                start = align_up(blocks[index].addr, alignment)
                addr = start + (preferred_offset - start) % self.cache_size
                if addr + size <= blocks[index].end:
                    arena.take_from_block(index, addr, size)
                    arena.mark_live(addr, size)
                    return addr
            addr = arena.extend_to_cache_offset(
                size, preferred_offset, self.cache_size
            )
            arena.mark_live(addr, size)
            return addr
        for _neg_touch, index in order:
            addr = align_up(blocks[index].addr, alignment)
            if addr + size <= blocks[index].end:
                arena.take_from_block(index, addr, size)
                arena.mark_live(addr, size)
                return addr
        addr = arena.extend(size, alignment)
        arena.mark_live(addr, size)
        return addr

    def free(self, addr: int) -> None:
        self.arena.add_free(addr, self.arena.release(addr))


class ScalarBinnedHeap:
    """One :class:`SortedTemporalFitAllocator` per allocation-bin tag."""

    def __init__(self, cache_size: int, base: int = HEAP_BASE):
        self.cache_size = cache_size
        self.base = base
        self._bins: dict[int | None, SortedTemporalFitAllocator] = {}
        self._addr_bin: dict[int, int | None] = {}

    def _bin_for(self, tag: int | None) -> SortedTemporalFitAllocator:
        if tag not in self._bins:
            slot = 0 if tag is None else tag + 1
            self._bins[tag] = SortedTemporalFitAllocator(
                self.base + slot * HEAP_BIN_STRIDE, self.cache_size
            )
        return self._bins[tag]

    def allocate(self, size, tag=None, preferred_offset=None) -> int:
        addr = self._bin_for(tag).allocate(size, preferred_offset)
        self._addr_bin[addr] = tag
        return addr

    def free(self, addr: int) -> None:
        if addr not in self._addr_bin:
            raise HeapError(f"free of unknown heap address 0x{addr:x}")
        self._bin_for(self._addr_bin.pop(addr)).free(addr)


class ScalarAddressResolver:
    """A placement policy applied one lifetime op at a time.

    The twin of :class:`~repro.runtime.resolvers.AddressResolver`:
    ``on_object``/``on_alloc``/``on_free`` place and release objects as
    the ops arrive and ``base_of`` holds every object with an address.
    A free of a declared static or the stack goes to the policy's heap
    like any other (the product rejects it as a corrupt trace).
    """

    def __init__(self) -> None:
        self.base_of: dict[int, int] = {STACK_OBJECT_ID: self.stack_base()}
        self._text_cursor = TEXT_BASE

    def stack_base(self) -> int:
        return STACK_BASE

    def place_global(self, info: ObjectInfo) -> int:
        raise NotImplementedError

    def place_heap(self, info: ObjectInfo, return_addresses: tuple[int, ...]) -> int:
        raise NotImplementedError

    def free_heap(self, obj_id: int, addr: int) -> None:
        """Release a heap allocation."""

    def place_constant(self, info: ObjectInfo) -> int:
        addr = align_up(self._text_cursor, DEFAULT_ALIGNMENT)
        self._text_cursor = addr + info.size
        return addr

    def on_object(self, info: ObjectInfo) -> None:
        if info.category is Category.CONST:
            self.base_of[info.obj_id] = self.place_constant(info)
        else:
            self.base_of[info.obj_id] = self.place_global(info)

    def on_alloc(self, info: ObjectInfo, return_addresses: tuple[int, ...]) -> None:
        self.base_of[info.obj_id] = self.place_heap(info, return_addresses)

    def on_free(self, obj_id: int) -> None:
        addr = self.base_of.pop(obj_id, None)
        if addr is not None:
            self.free_heap(obj_id, addr)

    def address_of(self, obj_id: int) -> int:
        return self.base_of[obj_id]


class ScalarNaturalResolver(ScalarAddressResolver):
    """Declaration order + first-fit heap, per op."""

    def __init__(self) -> None:
        super().__init__()
        self._data_cursor = DATA_BASE
        self._heap = ScalarFirstFitAllocator(HEAP_BASE)

    def place_global(self, info: ObjectInfo) -> int:
        addr = align_up(self._data_cursor, DEFAULT_ALIGNMENT)
        self._data_cursor = addr + info.size
        return addr

    def place_heap(self, info: ObjectInfo, return_addresses) -> int:
        return self._heap.allocate(info.size)

    def free_heap(self, obj_id: int, addr: int) -> None:
        self._heap.free(addr)


class ScalarRandomResolver(ScalarAddressResolver):
    """A random pad before every global and allocation, drawn per op."""

    def __init__(self, seed: int = 0, max_pad: int = 8192):
        self._rng = random.Random(seed)
        self._max_pad = max_pad
        super().__init__()
        self._data_cursor = DATA_BASE
        self._heap_cursor = HEAP_BASE

    def place_global(self, info: ObjectInfo) -> int:
        pad = self._rng.randrange(0, self._max_pad, DEFAULT_ALIGNMENT)
        addr = align_up(self._data_cursor + pad, DEFAULT_ALIGNMENT)
        self._data_cursor = addr + info.size
        return addr

    def place_heap(self, info: ObjectInfo, return_addresses) -> int:
        pad = self._rng.randrange(0, self._max_pad, DEFAULT_ALIGNMENT)
        addr = align_up(self._heap_cursor + pad, DEFAULT_ALIGNMENT)
        self._heap_cursor = addr + info.size
        return addr


class ScalarCCDPResolver(ScalarAddressResolver):
    """A placement map applied per op: modified linker + custom malloc.

    A per-op resolver cannot see the globals still to come, so a global
    the placement never saw falls back past the largest placed *offset*
    (the product starts past the end of the placed globals the recording
    declares; the two agree whenever every declared global is placed).
    """

    def __init__(self, placement: PlacementMap, compact_heap: bool = False):
        self.placement = placement
        super().__init__()
        size = max(placement.global_offsets.values(), default=0)
        self._fallback_cursor = placement.data_base + size + FALLBACK_GAP
        self._heap = ScalarBinnedHeap(placement.cache_config.size, HEAP_BASE)
        self._compact = ScalarFirstFitAllocator(HEAP_BASE) if compact_heap else None

    def stack_base(self) -> int:
        return self.placement.stack_base

    def place_global(self, info: ObjectInfo) -> int:
        offset = self.placement.global_offsets.get(info.symbol)
        if offset is None:
            addr = align_up(self._fallback_cursor, DEFAULT_ALIGNMENT)
            self._fallback_cursor = addr + info.size
            return addr
        return self.placement.data_base + offset

    def place_heap(self, info: ObjectInfo, return_addresses) -> int:
        if self._compact is not None:
            return self._compact.allocate(info.size)
        name = xor_fold(return_addresses, self.placement.name_depth)
        decision = self.placement.heap_decision(name)
        if decision is None:
            return self._heap.allocate(info.size)
        return self._heap.allocate(
            info.size, tag=decision.bin_tag, preferred_offset=decision.preferred_offset
        )

    def free_heap(self, obj_id: int, addr: int) -> None:
        if self._compact is not None:
            self._compact.free(addr)
        else:
            self._heap.free(addr)


def scalar_resolver(resolver) -> ScalarAddressResolver:
    """The per-op twin of a product resolver, from its constructor arguments.

    A per-op resolver passes through unchanged.
    """
    if isinstance(resolver, ScalarAddressResolver):
        return resolver
    if type(resolver) is NaturalResolver:
        return ScalarNaturalResolver()
    if type(resolver) is RandomResolver:
        return ScalarRandomResolver(resolver.seed, resolver.max_pad)
    if type(resolver) is CCDPResolver:
        return ScalarCCDPResolver(resolver.placement, resolver.compact_heap)
    raise TypeError(f"no per-op twin for {type(resolver).__name__}")


def scalar_resolve_bases(trace: TraceRecorder, resolver) -> ResolvedBases:
    """Replay the lifetime ops through ``resolver``'s per-op twin.

    The reference for :meth:`TraceRecorder.resolve_bases`: bases, births
    and deaths by one resolver call per op.
    """
    twin = scalar_resolver(resolver)
    max_obj = STACK_OBJECT_ID
    for _position, kind, payload in trace.lifetime_ops:
        if kind == _OP_OBJECT:
            max_obj = max(max_obj, payload.obj_id)
        elif kind == _OP_ALLOC:
            max_obj = max(max_obj, payload[0].obj_id)
    bases = np.zeros(max_obj + 1, dtype=np.int64)
    born = np.full(max_obj + 1, _NEVER, dtype=np.int64)
    died = np.full(max_obj + 1, _NEVER, dtype=np.int64)
    base_of = twin.base_of
    bases[STACK_OBJECT_ID] = base_of[STACK_OBJECT_ID]
    born[STACK_OBJECT_ID] = 0
    for position, kind, payload in trace.lifetime_ops:
        if kind == _OP_OBJECT:
            twin.on_object(payload)
            bases[payload.obj_id] = base_of[payload.obj_id]
            born[payload.obj_id] = position
        elif kind == _OP_ALLOC:
            info, return_addresses = payload
            twin.on_alloc(info, return_addresses)
            bases[info.obj_id] = base_of[info.obj_id]
            born[info.obj_id] = position
        elif kind == _OP_FREE:
            twin.on_free(payload)
            # Only a free of a live object ends a life.
            if 0 <= payload <= max_obj and born[payload] <= position < died[payload]:
                died[payload] = position
    return ResolvedBases(bases, born, died)


# -- the per-access cache simulators ------------------------------------------


class CacheSimulator:
    """A set-associative, LRU, virtually indexed data cache.

    Args:
        config: Cache geometry; direct-mapped 8K/32B by default.
        classify: When True, maintain a fully associative LRU shadow and a
            seen-blocks set to split misses into compulsory / capacity /
            conflict.  Costs roughly 2x per access; Tables 2 and 4 only
            need totals, so it is off by default.
        track_evictions: When True, record which object's block each
            miss displaced, building the (evictor, victim) matrix the
            conflict debugger reports.  Direct-mapped only.
    """

    def __init__(
        self,
        config: CacheConfig | None = None,
        classify: bool = False,
        track_evictions: bool = False,
    ):
        self.config = config or CacheConfig()
        self.classify = classify
        self.track_evictions = track_evictions
        self.stats = CacheStats()
        num_sets = self.config.num_sets
        if self.config.associativity == 1:
            self._lines: list[int | None] = [None] * num_sets
            self._sets: list[OrderedDict] | None = None
        else:
            self._lines = []
            self._sets = [OrderedDict() for _ in range(num_sets)]
        self._dirty: list[bool] = [False] * num_sets
        self._seen_blocks: set[int] = set()
        self._shadow: OrderedDict[int, None] = OrderedDict()
        self._shadow_capacity = self.config.num_lines
        #: (evictor obj_id, victim obj_id) -> eviction count.
        self.evictions: dict[tuple[int, int], int] = {}
        self._line_owner: list[int | None] = [None] * num_sets
        self._line_size = self.config.line_size
        self._num_sets = num_sets
        # Direct-mapped references with no classification or eviction
        # tracking take a short inline path in access().
        self._fast = self._sets is None and not classify and not track_evictions

    def access(
        self,
        addr: int,
        size: int,
        obj_id: int,
        category: Category,
        is_store: bool = False,
    ) -> bool:
        """Simulate one reference; returns True when any touched block misses.

        A reference spanning a line boundary touches every covered block;
        each touched block is counted as one access, matching a simulator
        that splits unaligned references.  The cache is write-back /
        write-allocate: stores dirty their line, and evicting a dirty
        line counts one writeback of next-level traffic.
        """
        line_size = self._line_size
        first_block = addr - (addr % line_size)
        last_block = (addr + size - 1) - ((addr + size - 1) % line_size)
        if self._fast and first_block == last_block:
            # Direct-mapped single-block fast path: no LRU bookkeeping,
            # no classification, no per-block dispatch.
            stats = self.stats
            stats.accesses += 1
            stats.accesses_by_category[category] += 1
            by_obj = stats.accesses_by_object
            by_obj[obj_id] = by_obj.get(obj_id, 0) + 1
            set_index = (first_block // line_size) % self._num_sets
            lines = self._lines
            if lines[set_index] == first_block:
                if is_store:
                    self._dirty[set_index] = True
                return False
            if lines[set_index] is not None and self._dirty[set_index]:
                stats.writebacks += 1
            lines[set_index] = first_block
            self._dirty[set_index] = is_store
            stats.misses += 1
            stats.misses_by_category[category] += 1
            by_obj = stats.misses_by_object
            by_obj[obj_id] = by_obj.get(obj_id, 0) + 1
            return True
        missed = False
        block = first_block
        while block <= last_block:
            if self._access_block(block, obj_id, category, is_store):
                missed = True
            block += line_size
        return missed

    def _access_block(
        self, block: int, obj_id: int, category: Category, is_store: bool = False
    ) -> bool:
        stats = self.stats
        stats.accesses += 1
        stats.accesses_by_category[category] += 1
        by_obj = stats.accesses_by_object
        by_obj[obj_id] = by_obj.get(obj_id, 0) + 1

        if self._sets is None:
            set_index = (block // self.config.line_size) % self.config.num_sets
            hit = self._lines[set_index] == block
            if not hit:
                if self._lines[set_index] is not None and self._dirty[set_index]:
                    stats.writebacks += 1
                if self.track_evictions:
                    victim = self._line_owner[set_index]
                    if victim is not None and self._lines[set_index] is not None:
                        key = (obj_id, victim)
                        self.evictions[key] = self.evictions.get(key, 0) + 1
                    self._line_owner[set_index] = obj_id
                self._lines[set_index] = block
                self._dirty[set_index] = is_store
            elif is_store:
                self._dirty[set_index] = True
        else:
            set_index = (block // self.config.line_size) % self.config.num_sets
            ways = self._sets[set_index]
            hit = block in ways
            if hit:
                if is_store:
                    ways[block] = True
                ways.move_to_end(block)
            else:
                ways[block] = is_store
                if len(ways) > self.config.associativity:
                    _evicted, was_dirty = ways.popitem(last=False)
                    if was_dirty:
                        stats.writebacks += 1

        if self.classify:
            self._classify_block(block, hit)
        if hit:
            return False
        stats.misses += 1
        stats.misses_by_category[category] += 1
        by_obj = stats.misses_by_object
        by_obj[obj_id] = by_obj.get(obj_id, 0) + 1
        return True

    def _classify_block(self, block: int, hit: bool) -> None:
        shadow = self._shadow
        in_shadow = block in shadow
        if in_shadow:
            shadow.move_to_end(block)
        else:
            shadow[block] = None
            if len(shadow) > self._shadow_capacity:
                shadow.popitem(last=False)
        if hit:
            return
        stats = self.stats
        if block not in self._seen_blocks:
            stats.compulsory += 1
        elif in_shadow:
            stats.conflict += 1
        else:
            stats.capacity += 1
        self._seen_blocks.add(block)


class ScalarTwoLevelCache:
    """An L1/L2 pair of per-access simulators, L1 misses forwarded downward."""

    def __init__(
        self,
        l1_config: CacheConfig | None = None,
        l2_config: CacheConfig | None = None,
    ):
        self.l1 = CacheSimulator(l1_config or CacheConfig())
        self.l2 = CacheSimulator(l2_config or DEFAULT_L2)

    def access(
        self,
        addr: int,
        size: int,
        obj_id: int,
        category: Category,
        is_store: bool = False,
    ) -> bool:
        """Simulate one reference; returns True on an L1 miss."""
        missed = self.l1.access(addr, size, obj_id, category, is_store)
        if missed:
            self.l2.access(addr, size, obj_id, category, is_store)
        return missed

    def replay(self, trace, resolver, max_events: int | None = None) -> int:
        """Simulate a recorded trace's accesses under ``resolver``'s placement.

        Replays the first ``max_events`` accesses (default: all) and
        returns how many it replayed.  Raises
        :class:`~repro.trace.events.TraceError` as
        :meth:`~repro.trace.buffer.TraceRecorder.iter_resolved` does.
        """
        from repro.trace.buffer import DEFAULT_CHUNK_EVENTS

        obj, _offset, size, cat, store = trace.columns()
        stop = trace.events if max_events is None else min(max_events, trace.events)
        access = self.access
        replayed = 0
        for start, end, addresses in trace.iter_resolved(
            resolver, DEFAULT_CHUNK_EVENTS
        ):
            end = min(end, stop)
            for addr, nbytes, obj_id, category, is_store in zip(
                addresses[: end - start].tolist(),
                size[start:end].tolist(),
                obj[start:end].tolist(),
                cat[start:end].tolist(),
                store[start:end].tolist(),
            ):
                access(addr, nbytes, obj_id, _CATEGORIES[category], bool(is_store))
            replayed = end
            if replayed >= stop:
                break
        return replayed

    @property
    def stats(self) -> HierarchyStats:
        """Current per-level statistics."""
        return HierarchyStats(l1=self.l1.stats, l2=self.l2.stats)


class ScalarPageTracker(PageTracker):
    """A :class:`PageTracker` fed one reference at a time."""

    def touch(self, addr: int, size: int) -> None:
        """Record the page(s) covered by one memory reference."""
        first = addr // self.page_size
        last = (addr + size - 1) // self.page_size
        page = first
        while page <= last:
            page_id = self._page_ids.get(page)
            if page_id is None:
                page_id = len(self._page_ids)
                self._page_ids[page] = page_id
            self._stream.append(page_id)
            page += 1


class ReplaySink(TraceSink):
    """Drive a cache simulation from a trace under a placement policy.

    ``resolver`` is a product resolver, replaced by its per-op twin
    (:func:`scalar_resolver`), or a per-op resolver.
    """

    def __init__(
        self,
        resolver,
        cache: CacheSimulator,
        pages: ScalarPageTracker | None = None,
    ):
        self.resolver = scalar_resolver(resolver)
        self.cache = cache
        self.pages = pages

    def on_object(self, info: ObjectInfo) -> None:
        self.resolver.on_object(info)

    def on_alloc(self, info: ObjectInfo, return_addresses: tuple[int, ...]) -> None:
        self.resolver.on_alloc(info, return_addresses)

    def on_free(self, obj_id: int) -> None:
        self.resolver.on_free(obj_id)

    def on_access(self, obj_id, offset, size, is_store, category) -> None:
        try:
            addr = self.resolver.base_of[obj_id] + offset
        except KeyError:
            raise TraceError(
                f"corrupt trace: access to unknown object id {obj_id} "
                "(never declared or allocated)"
            ) from None
        if offset < 0:
            raise TraceError(
                f"corrupt trace: negative offset {offset} into object id {obj_id}"
            )
        self.cache.access(addr, size, obj_id, category, is_store)
        if self.pages is not None:
            self.pages.touch(addr, size)


class OneReferenceChunks:
    """A product simulator given the oracles' per-reference ``access``.

    Wraps a :class:`~repro.cache.batch.BatchCacheSimulator` or a
    :class:`~repro.cache.hierarchy.TwoLevelCache` and feeds it one
    reference per chunk through ``consume_misses``, so the unit cases
    written against the per-access simulators run against the product
    too.  Every other attribute is the wrapped simulator's.
    """

    def __init__(self, target):
        self.target = target

    def access(
        self,
        addr: int,
        size: int,
        obj_id: int,
        category: Category,
        is_store: bool = False,
    ) -> bool:
        missed = self.target.consume_misses(
            np.array([addr], dtype=np.int64),
            np.array([size], dtype=np.int32),
            np.array([obj_id], dtype=np.int32),
            np.array([category], dtype=np.int8),
            np.array([is_store], dtype=np.int8),
        )
        return bool(missed[0])

    def __getattr__(self, name):
        return getattr(self.target, name)


def one_reference_simulator(*args, **kwargs) -> OneReferenceChunks:
    """A :class:`BatchCacheSimulator` built like :class:`CacheSimulator`."""
    return OneReferenceChunks(BatchCacheSimulator(*args, **kwargs))


def one_reference_hierarchy(*args, **kwargs) -> OneReferenceChunks:
    """A :class:`TwoLevelCache` built like :class:`ScalarTwoLevelCache`."""
    return OneReferenceChunks(TwoLevelCache(*args, **kwargs))


# -- reference pipelines -------------------------------------------------------


def scalar_measure(
    workload,
    input_name: str,
    resolver,
    config: CacheConfig | None = None,
    classify: bool = False,
    track_pages: bool = False,
) -> MeasureResult:
    """Simulate one live run event by event: the reference ``measure``.

    ``resolver`` is a product resolver; the run places objects with its
    per-op twin.
    """
    cache = CacheSimulator(config, classify=classify)
    pages = ScalarPageTracker() if track_pages else None
    workload.run(ReplaySink(resolver, cache, pages), input_name)
    paging = PagingSummary.from_tracker(pages) if pages else None
    return MeasureResult(cache=cache.stats, paging=paging)


def scalar_profile(workload, input_name: str, **profiler_kwargs) -> Profile:
    """Profile one live run event by event: the reference profiler."""
    sink = ProfilerSink(**profiler_kwargs)
    workload.run(sink, input_name)
    return sink.profile


def scalar_window_profile(
    trace: TraceRecorder,
    end_event: int,
    cache_config: CacheConfig | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_depth: int = DEFAULT_NAME_DEPTH,
    queue_threshold: int | None = None,
) -> Profile:
    """Profile a run truncated after ``end_event`` accesses, event by event.

    Lifetime ops at or before the cut are interleaved at their recorded
    positions; later ones are dropped.
    """
    sink = ProfilerSink(
        cache_config=cache_config,
        chunk_size=chunk_size,
        name_depth=name_depth,
        queue_threshold=queue_threshold,
    )
    obj, offset, size, _cat, _store = trace.columns()
    end = min(max(0, end_event), len(obj))
    accesses = list(zip(obj[:end].tolist(), offset[:end].tolist(), size[:end].tolist()))
    position = 0
    for op_position, kind, payload in trace.lifetime_ops:
        if op_position > end:
            break
        while position < op_position:
            sink.on_access(*accesses[position], False, None)
            position += 1
        TraceRecorder._replay_op(sink, kind, payload)
    while position < end:
        sink.on_access(*accesses[position], False, None)
        position += 1
    sink.on_end()
    return sink.profile


def scalar_window_trg(eids, chunks, entry_bytes, queue_threshold) -> TRGBuilder:
    """A fresh :class:`TRGBuilder` fed one window reference by reference.

    ``entry_bytes`` is indexed by entity, as in ``window_trg``.
    """
    builder = TRGBuilder(queue_threshold)
    for eid, chunk in zip(eids.tolist(), chunks.tolist()):
        builder.observe(eid, chunk, int(entry_bytes[eid]))
    return builder


def scalar_popularity(profile: Profile) -> dict[int, int]:
    """Per-entity sums of incident edge weights, one loop over the dict.

    Every entity in entity order is a key, then any edge endpoint the
    profile does not declare, in order of first appearance.
    """
    totals = {eid: 0 for eid in profile.entities}
    for ((eid_a, _ca), (eid_b, _cb)), weight in profile.trg.items():
        totals[eid_a] = totals.get(eid_a, 0) + weight
        if eid_b != eid_a:
            totals[eid_b] = totals.get(eid_b, 0) + weight
    return totals


def assert_same_profile(batched: Profile, scalar: Profile) -> None:
    """Field-by-field profile equality, dict insertion orders included.

    Downstream tie-breaking iterates the TRG and entity dicts, so their
    order is part of the contract; the batched side's popularity and
    affinity (column reductions) are checked against the dict loops over
    the scalar side's edges.
    """
    assert list(batched.trg.items()) == list(scalar.trg.items())
    assert batched.total_accesses == scalar.total_accesses
    assert list(batched.alloc_adjacency.items()) == list(
        scalar.alloc_adjacency.items()
    )
    assert list(batched.entities.items()) == list(scalar.entities.items())
    assert (batched.chunk_size, batched.queue_threshold, batched.name_depth) == (
        scalar.chunk_size,
        scalar.queue_threshold,
        scalar.name_depth,
    )
    assert list(batched.popularity().items()) == list(
        scalar_popularity(scalar).items()
    )
    assert list(batched.entity_affinity().items()) == list(
        entity_affinity(scalar.trg).items()
    )


class ScalarPlacer(CCDPPlacer):
    """The placer with the dict-based Figure 2 scans in Phases 2 and 6.

    Prices only the classic direct-mapped conflict cost, so a
    non-trivial cost model is rejected.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.cost_model is not None and not self.cost_model.is_trivial:
            raise ValueError("the reference placer prices only the direct cost")

    def _place_stack_and_constants(self) -> int:
        profile = self.profile
        config = self.config
        active = active_chunks_by_entity(profile)
        self._active_chunks = active
        self._adjacency = build_adjacency(profile)

        image = CacheImage(config, profile.chunk_size)
        constants = profile.entities_of(Category.CONST)
        addresses = layout_sequential(
            [(e.key, e.size) for e in sorted(constants, key=lambda e: e.decl_index)],
            TEXT_BASE,
        )
        for entity in constants:
            image.add_entity(
                entity.eid,
                entity.size,
                addresses[entity.key] % config.size,
                active.get(entity.eid, (0,)),
            )

        stack = profile.entities[STACK_ENTITY_ID]
        stack_chunks = active.get(stack.eid, (0,))
        moving = CacheImage(config, profile.chunk_size)
        moving.add_entity(stack.eid, max(stack.size, 1), 0, stack_chunks)
        start_line, _cost = conflict_cost_scan(
            image.pairs, moving.pairs, self._adjacency, config.num_sets
        )
        stack_offset = start_line * config.line_size
        image.add_entity(stack.eid, max(stack.size, 1), stack_offset, stack_chunks)
        self._stack_const = image
        return stack_offset

    def _make_merger(self, nodes: dict[int, CompoundNode]) -> CompoundMerger:
        self._merger = CompoundMerger(
            self.config,
            self.profile.chunk_size,
            self._stack_const,
            self._adjacency,
            self._entity_sizes(),
            self._active_chunks,
        )
        return self._merger

    def _conflict_scans(self) -> int:
        return 1 + self._merger.scan_count


def scalar_fix_placed(engine, entity_base, entity_size) -> None:
    """Fix each placed entity's pairs with one span fill per entity.

    The per-entity twin of ``ArrayPlacementEngine.fix_placed`` (same
    arguments, with the engine first).
    """
    cache_size = engine.config.size
    for eid in np.unique(engine.index.pair_eid).tolist():
        base = int(entity_base[eid])
        if base < 0:
            continue
        engine.set_entity_span(eid, base % cache_size, int(entity_size[eid]))
        engine.set_owner(engine.index.pair_ids(eid), FIXED)


def scalar_drift_score(index, config, chunk_size, entity_base, entity_size) -> float:
    """The adaptive drift score with the per-entity span fill.

    Same arguments as ``repro.adaptive.engine._drift_score``.
    """
    total = index.total_weight()
    if total <= 0:
        return 0.0
    engine = ArrayPlacementEngine(index, config, chunk_size)
    scalar_fix_placed(engine, entity_base, entity_size)
    return engine.total_conflict_cost() / total
