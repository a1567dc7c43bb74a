"""Free-list machinery shared by the simulated heap allocators.

Both the first-fit baseline allocator (Grunwald/Zorn-style single bin, the
paper's "original placement" heap) and the CCDP temporal-fit allocator
operate over an :class:`Arena`: a contiguous, growable region of the heap
segment with an explicit free list.  The arena enforces the classic
allocator invariants — free blocks are disjoint, address-sorted, coalesced,
and never overlap live allocations — and raises :class:`HeapError` on any
violation, which the property-based tests lean on heavily.

The free list is held as plain int lists, one entry per block in address
order (start, end, last touch), beside a *recency index*: one
``(-last_touch, addr, end)`` tuple per block, kept sorted as blocks come
and go.  First fit scans the address lists; temporal fit scans the index,
most recently touched first with ties in address order, so neither sorts
the free list per allocation.  An arena builds the index on the first
:meth:`Arena.by_recency` call and keeps it from then on, so a first-fit
arena never pays for it.  :attr:`Arena.free_blocks` builds
:class:`FreeBlock` records from the lists when read.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator


class HeapError(Exception):
    """Raised on allocator misuse (double free, overlapping free, ...)."""


#: Minimum allocation alignment, matching common malloc implementations.
DEFAULT_ALIGNMENT = 8


class FreeBlock:
    """One contiguous run of free bytes inside an arena (a read-out record).

    :attr:`Arena.free_blocks` builds these on read; editing one does not
    change the arena.
    """

    __slots__ = ("addr", "size", "end", "last_touch")

    def __init__(self, addr: int, size: int, last_touch: int = 0):
        self.addr = addr
        self.size = size
        #: One past the last free byte.
        self.end = addr + size
        self.last_touch = last_touch

    def __repr__(self) -> str:
        return (
            f"FreeBlock(addr={self.addr}, size={self.size}, "
            f"last_touch={self.last_touch})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeBlock):
            return NotImplemented
        return (self.addr, self.size, self.last_touch) == (
            other.addr,
            other.size,
            other.last_touch,
        )


class Arena:
    """A growable region of heap address space with an explicit free list.

    The free list is kept sorted by address, fully coalesced.  ``brk`` is
    the high-water mark: addresses in ``[base, brk)`` are either live or on
    the free list; addresses at or above ``brk`` are untouched and can be
    claimed by :meth:`extend`.
    """

    def __init__(self, base: int):
        self.base = base
        self.brk = base
        self.live: dict[int, int] = {}
        self.clock = 0
        # The free list in address order: start, end and last touch.
        self._addrs: list[int] = []
        self._ends: list[int] = []
        self._touches: list[int] = []
        # (-last_touch, addr, end) per block, sorted: most recent first;
        # None until by_recency() first asks for it.
        self._recency: list[tuple[int, int, int]] | None = None

    def __repr__(self) -> str:
        return (
            f"Arena(base={self.base:#x}, brk={self.brk:#x}, "
            f"free={len(self._addrs)}, live={len(self.live)})"
        )

    @property
    def free_blocks(self) -> list[FreeBlock]:
        """The free list in address order, built on read."""
        return [
            FreeBlock(addr, end - addr, touch)
            for addr, end, touch in zip(self._addrs, self._ends, self._touches)
        ]

    def by_address(self) -> Iterator[tuple[int, int]]:
        """``(addr, end)`` of every free block, lowest address first.

        Iterates the arena's own lists: stop before changing the arena.
        """
        return zip(self._addrs, self._ends)

    def by_recency(self) -> list[tuple[int, int, int]]:
        """``(-last_touch, addr, end)`` of every free block, most recent first.

        Ties scan in address order, like a stable descending sort on
        ``last_touch``.  The arena's own index: read it, do not edit it.
        """
        if self._recency is None:
            self._recency = self._recency_order()
        return self._recency

    def _recency_order(self) -> list[tuple[int, int, int]]:
        return sorted(
            (-touch, addr, end)
            for addr, end, touch in zip(self._addrs, self._ends, self._touches)
        )

    # -- growth ----------------------------------------------------------

    def extend(self, size: int, align_to: int = DEFAULT_ALIGNMENT) -> int:
        """Claim ``size`` fresh bytes at the top of the arena.

        Returns the address of the new region (aligned to ``align_to``);
        any alignment padding is added to the free list so it is not lost.
        """
        addr = -(-self.brk // align_to) * align_to
        if addr > self.brk:
            self._insert_free(self.brk, addr)
        self.brk = addr + size
        return addr

    def extend_to_cache_offset(
        self, size: int, cache_offset: int, cache_size: int
    ) -> int:
        """Claim fresh bytes whose start maps to ``cache_offset``.

        Used by the custom allocator when an object has a preferred cache
        starting location but no suitable free chunk exists: the break is
        padded forward until ``addr % cache_size == cache_offset`` (the
        padding is recorded as free space).
        """
        addr = -(-self.brk // DEFAULT_ALIGNMENT) * DEFAULT_ALIGNMENT
        delta = (cache_offset - addr) % cache_size
        addr += delta
        if addr > self.brk:
            self._insert_free(self.brk, addr)
        self.brk = addr + size
        return addr

    # -- bookkeeping -----------------------------------------------------

    def mark_live(self, addr: int, size: int) -> None:
        """Register a completed allocation for invariant checking."""
        if addr in self.live:
            raise HeapError(f"allocation at 0x{addr:x} already live")
        self.live[addr] = size
        self.clock += 1

    def release(self, addr: int) -> int:
        """Remove a live allocation and return its size."""
        size = self.live.pop(addr, None)
        if size is None:
            raise HeapError(f"free of unallocated address 0x{addr:x}")
        self.clock += 1
        return size

    # -- free-list operations --------------------------------------------

    def take_from_block(self, index: int, addr: int, size: int) -> None:
        """Carve ``[addr, addr+size)`` out of free block ``index``.

        ``index`` counts blocks in address order.  Splits the block into
        up to two remainders.  Each remainder is stamped with the current
        clock, implementing the temporal-fit rule that a free chunk is
        "touched" when one of its sides is allocated.
        """
        addrs = self._addrs
        ends = self._ends
        touches = self._touches
        start = addrs[index]
        end = ends[index]
        stop = addr + size
        if addr < start or stop > end:
            raise HeapError(
                f"carve [{addr:#x},{stop:#x}) outside free block "
                f"[{start:#x},{end:#x})"
            )
        clock = self.clock
        recency = self._recency
        if recency is not None:
            del recency[bisect_left(recency, (-touches[index], start))]
        if addr > start:
            if stop < end:
                addrs[index : index + 1] = (start, stop)
                ends[index : index + 1] = (addr, end)
                touches[index : index + 1] = (clock, clock)
            else:
                ends[index] = addr
                touches[index] = clock
            if recency is not None:
                insort(recency, (-clock, start, addr))
                if stop < end:
                    insort(recency, (-clock, stop, end))
        elif stop < end:
            addrs[index] = stop
            touches[index] = clock
            if recency is not None:
                insort(recency, (-clock, stop, end))
        else:
            del addrs[index], ends[index], touches[index]

    def take_from(self, block_addr: int, addr: int, size: int) -> None:
        """:meth:`take_from_block` for the free block starting at ``block_addr``."""
        self.take_from_block(bisect_left(self._addrs, block_addr), addr, size)

    def add_free(self, addr: int, size: int) -> None:
        """Return ``[addr, addr+size)`` to the free list, coalescing.

        Coalesced neighbours are re-stamped with the current clock — the
        temporal-fit "touched when part of the free chunk is deallocated"
        rule.
        """
        if size <= 0:
            return
        self._insert_free(addr, addr + size)

    def _insert_free(self, addr: int, end: int) -> None:
        addrs = self._addrs
        ends = self._ends
        touches = self._touches
        lo = bisect_left(addrs, addr)
        if lo > 0 and ends[lo - 1] > addr:
            raise HeapError(
                f"free block [{addr:#x},{end:#x}) overlaps "
                f"predecessor ending at {ends[lo - 1]:#x}"
            )
        if lo < len(addrs) and end > addrs[lo]:
            raise HeapError(
                f"free block [{addr:#x},{end:#x}) overlaps "
                f"successor at {addrs[lo]:#x}"
            )
        recency = self._recency
        # Coalesce with predecessor and/or successor, re-stamped.
        if lo < len(addrs) and addrs[lo] == end:
            if recency is not None:
                del recency[bisect_left(recency, (-touches[lo], end))]
            end = ends[lo]
            del addrs[lo], ends[lo], touches[lo]
        if lo > 0 and ends[lo - 1] == addr:
            lo -= 1
            addr = addrs[lo]
            if recency is not None:
                del recency[bisect_left(recency, (-touches[lo], addr))]
            ends[lo] = end
            touches[lo] = self.clock
        else:
            addrs.insert(lo, addr)
            ends.insert(lo, end)
            touches.insert(lo, self.clock)
        if recency is not None:
            insort(recency, (-self.clock, addr, end))

    # -- introspection ----------------------------------------------------

    def total_free_bytes(self) -> int:
        """Bytes currently on the free list."""
        return sum(self._ends) - sum(self._addrs)

    def total_live_bytes(self) -> int:
        """Bytes currently allocated."""
        return sum(self.live.values())

    def check_invariants(self) -> None:
        """Raise :class:`HeapError` if the arena state is inconsistent."""
        blocks = self.free_blocks
        prev_end = self.base - 1
        for block in blocks:
            if block.size <= 0:
                raise HeapError(f"empty free block at {block.addr:#x}")
            if block.addr <= prev_end and prev_end >= self.base:
                raise HeapError("free list not sorted/disjoint")
            if block.addr < self.base or block.end > self.brk:
                raise HeapError("free block outside arena bounds")
            prev_end = block.end
        if self._recency is not None and self._recency != self._recency_order():
            raise HeapError("recency index out of step with the free list")
        spans = sorted(self.live.items())
        for (a1, s1), (a2, _s2) in zip(spans, spans[1:]):
            if a1 + s1 > a2:
                raise HeapError(f"live allocations overlap at {a2:#x}")
        for addr, size in spans:
            for block in blocks:
                if addr < block.end and block.addr < addr + size:
                    raise HeapError(
                        f"live allocation [{addr:#x},{addr + size:#x}) overlaps "
                        f"free block [{block.addr:#x},{block.end:#x})"
                    )
