"""Simulated heap allocators.

Two allocation disciplines from the paper:

* :class:`FirstFitAllocator` — the *original placement* heap: a single bin
  with an address-ordered first-fit free list (the Grunwald, Zorn &
  Henderson allocator the paper cites as its baseline, Section 5.1).

* :class:`TemporalFitAllocator` — the CCDP heap: free chunks are scanned
  by the last time they were *touched* (a side allocated, or part of the
  chunk deallocated) rather than by address or size, and an allocation may
  request a *preferred cache offset* so that the object's start maps to
  the cache block chosen by the placement algorithm (Section 5.1).

:class:`BinnedHeap` composes several temporal-fit arenas, one per
allocation-bin tag, mirroring the custom malloc's per-tag free lists
(Section 3.4).

Both scans read the arena's standing orders (:meth:`Arena.by_address`,
:meth:`Arena.by_recency`), so no allocation sorts the free list.
``tests/oracles.py`` keeps a temporal fit that sorts the free list on
every allocation; the allocator fuzz checks these against it.
"""

from __future__ import annotations

from .freelist import Arena, DEFAULT_ALIGNMENT, HeapError
from .layout import HEAP_BASE, HEAP_BIN_STRIDE, align_up


class FirstFitAllocator:
    """Address-ordered first-fit allocation over a single arena."""

    def __init__(self, base: int = HEAP_BASE):
        self.arena = Arena(base)

    def allocate(self, size: int, alignment: int = DEFAULT_ALIGNMENT) -> int:
        """Allocate ``size`` bytes; returns the block's start address."""
        if size <= 0:
            raise HeapError(f"allocation size must be positive, got {size}")
        size = align_up(size, alignment)
        arena = self.arena
        for index, (start, end) in enumerate(arena.by_address()):
            addr = -(-start // alignment) * alignment
            if addr + size <= end:
                arena.take_from_block(index, addr, size)
                arena.mark_live(addr, size)
                return addr
        addr = arena.extend(size, alignment)
        arena.mark_live(addr, size)
        return addr

    def free(self, addr: int) -> None:
        """Release a previously allocated block."""
        size = self.arena.release(addr)
        self.arena.add_free(addr, size)


class TemporalFitAllocator:
    """Temporal-fit allocation with optional preferred cache offsets.

    Temporal-fit scans free chunks from most recently touched to least
    recently touched and takes the first chunk the request fits in
    (paper, Section 5.1).  When the request carries a preferred cache
    offset, the scan looks for a chunk that can host the object so its
    start address maps to that offset; if no chunk can, the allocator
    extends the arena, padding the break so the fresh block honours the
    preferred offset.
    """

    def __init__(self, base: int, cache_size: int):
        if cache_size <= 0:
            raise HeapError(f"cache size must be positive, got {cache_size}")
        self.arena = Arena(base)
        self.cache_size = cache_size

    def allocate(
        self,
        size: int,
        preferred_offset: int | None = None,
        alignment: int = DEFAULT_ALIGNMENT,
    ) -> int:
        """Allocate ``size`` bytes, honouring ``preferred_offset`` if possible.

        Args:
            size: Request size in bytes.
            preferred_offset: Desired start address modulo the cache size
                (the placement algorithm's preferred cache block), or
                ``None`` for plain temporal-fit.
            alignment: Start-address alignment.

        Returns:
            The allocated start address.
        """
        if size <= 0:
            raise HeapError(f"allocation size must be positive, got {size}")
        size = align_up(size, alignment)
        arena = self.arena
        if preferred_offset is not None:
            cache_size = self.cache_size
            preferred_offset %= cache_size
            for _neg_touch, start, end in arena.by_recency():
                # The first aligned address in the chunk at the offset;
                # cache offsets are pre-aligned (line starts are more
                # strictly aligned than the allocator minimum).
                addr = -(-start // alignment) * alignment
                addr += (preferred_offset - addr) % cache_size
                if addr + size <= end:
                    arena.take_from(start, addr, size)
                    arena.mark_live(addr, size)
                    return addr
            addr = arena.extend_to_cache_offset(size, preferred_offset, cache_size)
            arena.mark_live(addr, size)
            return addr
        for _neg_touch, start, end in arena.by_recency():
            addr = -(-start // alignment) * alignment
            if addr + size <= end:
                arena.take_from(start, addr, size)
                arena.mark_live(addr, size)
                return addr
        addr = arena.extend(size, alignment)
        arena.mark_live(addr, size)
        return addr

    def free(self, addr: int) -> None:
        """Release a previously allocated block."""
        size = self.arena.release(addr)
        self.arena.add_free(addr, size)


class BinnedHeap:
    """The CCDP custom heap: one temporal-fit arena per allocation-bin tag.

    Bin tag ``None`` (the *default free list*) hosts every allocation whose
    XOR name has no entry in the allocation table.  Tagged bins are placed
    at widely spaced bases so objects sharing a tag share pages.
    """

    def __init__(self, cache_size: int, base: int = HEAP_BASE):
        self.cache_size = cache_size
        self.base = base
        self._bins: dict[int | None, TemporalFitAllocator] = {}
        self._addr_bin: dict[int, int | None] = {}

    def _bin_for(self, tag: int | None) -> TemporalFitAllocator:
        allocator = self._bins.get(tag)
        if allocator is None:
            slot = 0 if tag is None else tag + 1
            allocator = TemporalFitAllocator(
                self.base + slot * HEAP_BIN_STRIDE, self.cache_size
            )
            self._bins[tag] = allocator
        return allocator

    def allocate(
        self,
        size: int,
        tag: int | None = None,
        preferred_offset: int | None = None,
    ) -> int:
        """Allocate from the bin for ``tag`` at the preferred cache offset."""
        allocator = self._bins.get(tag) or self._bin_for(tag)
        addr = allocator.allocate(size, preferred_offset)
        self._addr_bin[addr] = tag
        return addr

    def free(self, addr: int) -> None:
        """Release an allocation back to the bin it came from."""
        if addr not in self._addr_bin:
            raise HeapError(f"free of unknown heap address 0x{addr:x}")
        self._bins[self._addr_bin.pop(addr)].free(addr)

    def bins_in_use(self) -> list[int | None]:
        """The bin tags that have served at least one allocation."""
        return list(self._bins)

    def check_invariants(self) -> None:
        """Validate every bin's arena."""
        for allocator in self._bins.values():
            allocator.arena.check_invariants()
