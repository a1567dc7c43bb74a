"""Address resolvers: how each placement policy assigns addresses.

A resolver is the run-time half of a placement policy.  It takes a
recording's :class:`~repro.trace.buffer.LifetimeWalk` (every object's
live interval, the statics in op order and the heap stream of
allocations and frees) and, in one :meth:`AddressResolver.resolve` call,
hands every data object a concrete virtual address:

* :class:`NaturalResolver` — the *original placement*: globals in
  declaration order in the data segment (what a standard linker emits),
  the stack at its default base, heap objects from a single first-fit
  free list (the Grunwald et al. baseline allocator the paper assumes).
* :class:`RandomResolver` — the paper's random-placement comparison
  (Section 5.1): globals in an arbitrary order, heap allocations at
  arbitrary cache offsets.
* :class:`CCDPResolver` — applies a :class:`~repro.core.PlacementMap`:
  reordered globals from the chosen data base, the chosen stack base,
  and the custom malloc — XOR name lookup into the allocation table,
  allocation-bin free lists, temporal-fit with preferred cache offsets.

Constants keep their text-segment addresses under every policy.  Static
layouts are cumulative sums over the walk's size columns; the heap runs
the walk's heap stream through a :mod:`repro.memory` allocator.  A
resolver holds only its policy's parameters, so one instance may resolve
any number of recordings.  ``tests/oracles.py`` keeps per-op twins (one
resolver call per lifetime op) as the reference.
"""

from __future__ import annotations

import random

import numpy as np

from ..core.placement_map import PlacementMap
from ..memory.allocators import BinnedHeap, FirstFitAllocator
from ..memory.freelist import DEFAULT_ALIGNMENT
from ..memory.layout import DATA_BASE, HEAP_BASE, STACK_BASE, TEXT_BASE, align_up
from ..trace.buffer import ALLOC, CONST, GLOBAL, LifetimeWalk, ResolvedBases
from ..trace.events import STACK_OBJECT_ID

#: Gap between the placed globals and the globals a placement never saw.
FALLBACK_GAP = 65536


class AddressResolver:
    """Base resolver: one placement policy's addresses for a lifetime walk."""

    def resolve(self, walk: LifetimeWalk) -> ResolvedBases:
        """Every object's base address under this policy."""
        raise NotImplementedError


def _sequential(sizes: np.ndarray, base: int) -> np.ndarray:
    """Starts of objects laid back to back from ``base``, each aligned.

    What a cursor does that aligns itself up before each object and then
    advances by the object's size.
    """
    aligned = -(-sizes // DEFAULT_ALIGNMENT) * DEFAULT_ALIGNMENT
    starts = np.empty(len(sizes), dtype=np.int64)
    starts[:1] = 0
    np.cumsum(aligned[:-1], out=starts[1:])
    return align_up(base, DEFAULT_ALIGNMENT) + starts


def _compose(
    walk: LifetimeWalk, stack_base: int, global_bases: np.ndarray, alloc_bases
) -> ResolvedBases:
    """Each object's base from one address per global and per allocation.

    Constants keep their text-segment addresses under every policy.
    """
    bases = np.zeros(len(walk.born), dtype=np.int64)
    bases[STACK_OBJECT_ID] = stack_base
    for kind, column in (
        (CONST, _sequential(walk.const_sizes, TEXT_BASE)),
        (GLOBAL, global_bases),
        (ALLOC, alloc_bases),
    ):
        ids, entries = walk.final[kind]
        bases[ids] = np.asarray(column, dtype=np.int64)[entries]
    return ResolvedBases(bases, walk.born, walk.died)


def _heap_bases(walk: LifetimeWalk, allocate, free, requests) -> list[int]:
    """Run the walk's heap stream through an allocator.

    ``requests`` holds the argument tuple of each allocation's
    ``allocate`` call; returns each allocation's address.
    """
    addresses: list[int] = []
    append = addresses.append
    pending = iter(requests)
    for event in walk.heap_stream.tolist():
        if event < 0:
            append(allocate(*next(pending)))
        else:
            free(addresses[event])
    return addresses


def _first_fit_bases(walk: LifetimeWalk) -> list[int]:
    """Every allocation from one address-ordered first-fit heap."""
    heap = FirstFitAllocator(HEAP_BASE)
    requests = [(size,) for size in walk.alloc_sizes.tolist()]
    return _heap_bases(walk, heap.allocate, heap.free, requests)


class NaturalResolver(AddressResolver):
    """Original placement: declaration order + first-fit heap."""

    def resolve(self, walk: LifetimeWalk) -> ResolvedBases:
        return _compose(
            walk,
            STACK_BASE,
            _sequential(walk.global_sizes, DATA_BASE),
            _first_fit_bases(walk),
        )


class RandomResolver(AddressResolver):
    """Arbitrary-order placement (the paper's random baseline).

    Globals receive a random padding gap before each assignment so their
    cache offsets are arbitrary (equivalent, modulo the cache size, to
    laying the globals out in a shuffled order); heap allocations get a
    random pad from a bump pointer for the same effect.  The pads are
    drawn in op order, globals and allocations interleaved, from
    ``random.Random(seed)``.  The stack keeps its natural start — the
    paper randomizes "global and heap objects" only.  Deterministic
    given ``seed``.
    """

    def __init__(self, seed: int = 0, max_pad: int = 8192):
        # Kept as plain attributes: the artifact store keys random-policy
        # measurements by (seed, max_pad).
        self.seed = seed
        self.max_pad = max_pad

    def resolve(self, walk: LifetimeWalk) -> ResolvedBases:
        draw = random.Random(self.seed).randrange
        heap = walk.pad_is_heap
        pads = np.array(
            [draw(0, self.max_pad, DEFAULT_ALIGNMENT) for _ in range(len(heap))],
            dtype=np.int64,
        )
        # Pads are multiples of the alignment, so each start is the
        # natural one shifted by every pad drawn for its kind up to it.
        global_shift = np.cumsum(pads[~heap])
        alloc_shift = np.cumsum(pads[heap])
        return _compose(
            walk,
            STACK_BASE,
            _sequential(walk.global_sizes, DATA_BASE) + global_shift,
            _sequential(walk.alloc_sizes, HEAP_BASE) + alloc_shift,
        )


class CCDPResolver(AddressResolver):
    """Apply a CCDP placement map: modified linker + custom malloc.

    Globals the training run never saw go after the placed set, in
    declaration order, starting :data:`FALLBACK_GAP` bytes past the end
    of the placed globals the recording declares.

    Args:
        placement: The computed placement map.
        compact_heap: When True, ignore the allocation table's bins and
            preferred offsets and serve every allocation from a compact
            first-fit heap — the "page-tuned" variant the paper leaves
            as future work (Table 5 discussion): it keeps the
            global/stack placement wins while holding page usage at the
            natural baseline.
    """

    def __init__(self, placement: PlacementMap, compact_heap: bool = False):
        self.placement = placement
        self.compact_heap = compact_heap

    def resolve(self, walk: LifetimeWalk) -> ResolvedBases:
        if self.compact_heap:
            alloc_bases = _first_fit_bases(walk)
        else:
            alloc_bases = self._custom_malloc_bases(walk)
        return _compose(
            walk, self.placement.stack_base, self._global_bases(walk), alloc_bases
        )

    def _global_bases(self, walk: LifetimeWalk) -> np.ndarray:
        placement = self.placement
        found = [placement.global_offsets.get(s) for s in walk.global_symbols]
        placed = np.array([offset is not None for offset in found], dtype=bool)
        bases = np.empty(len(found), dtype=np.int64)
        bases[placed] = placement.data_base + np.array(
            [offset for offset in found if offset is not None], dtype=np.int64
        )
        if not placed.all():
            sizes = walk.global_sizes
            ends = bases[placed] + sizes[placed]
            end = int(ends.max(initial=placement.data_base))
            bases[~placed] = _sequential(sizes[~placed], end + FALLBACK_GAP)
        return bases

    def _custom_malloc_bases(self, walk: LifetimeWalk) -> list[int]:
        placement = self.placement
        table = placement.heap_table
        heap = BinnedHeap(placement.cache_config.size, HEAP_BASE)
        requests = []
        for size, name in zip(
            walk.alloc_sizes.tolist(), walk.heap_names(placement.name_depth)
        ):
            decision = table.get(name)
            if decision is None:
                requests.append((size, None, None))
            else:
                requests.append((size, decision.bin_tag, decision.preferred_offset))
        return _heap_bases(walk, heap.allocate, heap.free, requests)
