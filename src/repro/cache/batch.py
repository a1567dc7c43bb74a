"""Vectorized cache-simulation kernels over structure-of-arrays chunks.

A direct-mapped cache admits a data-parallel formulation a per-access
simulator cannot exploit: group a chunk of block references by cache set
(a stable argsort), and within each set a reference hits exactly when it
touches the same block as the previous reference to that set — the first
reference of each set-group compares against a carried per-set tag array
instead.  Hit/miss, per-category and per-object attribution, and
write-back accounting all become numpy reductions; Python-level work per
*chunk* replaces Python-level work per *event*.

Write-backs use the same segmented view: every miss starts a new
*resident run* of its set; a run is dirty when any of its accesses is a
store (or when it continues a dirty line carried in from the previous
chunk); evicting a dirty run costs one write-back.

The eviction matrix reuses the same view: the victim of a miss is the
object whose miss started the previous resident run of its set (the
carried per-set owner for set-group heads).

Set-associative LRU and the fully associative three-Cs shadow run on the
capped stack-distance routine of :mod:`repro.cache.stack`: per set with
``cap = ways``, and over the whole stream of block touches with
``cap = num_lines``.  Each structure's residents carry into the next
chunk as pseudo-touches prepended oldest first.

:class:`BatchCacheSimulator` is the only cache simulator: it vectorizes
every geometry, with or without classification, records the direct-mapped
eviction matrix, reports which references missed (the L1 of
:class:`~repro.cache.hierarchy.TwoLevelCache`), and has no per-access
loop.  Its :class:`~repro.cache.simulator.CacheStats` and eviction matrix
equal those of the per-access simulator in ``tests/oracles.py``, which the
parity and differential suites keep as the reference.
"""

from __future__ import annotations

import numpy as np

from ..obs import invariants
from ..obs import telemetry as obs
from ..trace.events import Category
from ..trace.stats import ObjectColumns
from .config import CacheConfig
from .simulator import CacheStats
from .stack import lru_pass

_CATEGORIES = tuple(Category)
_NUM_CATEGORIES = len(_CATEGORIES)


def expand_blocks(
    addr: np.ndarray,
    size: np.ndarray,
    line_size: int,
    *columns: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Expand references into per-block touches, replicating ``columns``.

    A reference spanning a line boundary touches every covered block, and
    each touched block counts as one access, as in a simulator that splits
    unaligned references.  A zero-size reference at a line-aligned
    address covers no block and is dropped.  Returns
    ``(blocks, *expanded_columns)`` where ``blocks`` are block *indices*
    (``block_addr // line_size``).
    """
    first = addr // line_size
    last = (addr + size - 1) // line_size
    counts = last - first + 1
    if (counts == 1).all():
        return (first, *columns)
    # A reference ending before its line covers no block, as in the
    # per-access oracle's block loop.
    counts = np.maximum(counts, 0)
    index = np.repeat(np.arange(len(addr)), counts)
    starts = np.cumsum(counts) - counts
    offsets = np.arange(len(index)) - starts[index]
    blocks = first[index] + offsets
    return (blocks, *(column[index] for column in columns))


def _object_columns(counts: np.ndarray, ranks: np.ndarray | None) -> ObjectColumns:
    """The counted objects, ascending or by ``ranks`` when given."""
    ids = np.flatnonzero(counts)
    if ranks is not None:
        ids = ids[np.argsort(ranks[ids], kind="stable")]
    return ObjectColumns(ids, counts[ids])


class _Counters:
    """Access, miss and write-back counters by category and object."""

    def __init__(self):
        self.accesses = 0
        self.misses = 0
        self.writebacks = 0
        self.acc_by_cat = np.zeros(_NUM_CATEGORIES, dtype=np.int64)
        self.miss_by_cat = np.zeros(_NUM_CATEGORIES, dtype=np.int64)
        self.acc_by_obj = np.zeros(0, dtype=np.int64)
        self.miss_by_obj = np.zeros(0, dtype=np.int64)
        #: Ordinal of each object's first access / first miss, when the
        #: per-object dicts follow first-touch order (else ascending id).
        self.acc_rank: np.ndarray | None = None
        self.miss_rank: np.ndarray | None = None

    def _grow_object_counters(self, max_obj: int) -> None:
        if max_obj >= len(self.acc_by_obj):
            grown = max(max_obj + 1, 2 * len(self.acc_by_obj))
            extra = np.zeros(grown - len(self.acc_by_obj), np.int64)
            self.acc_by_obj = np.concatenate([self.acc_by_obj, extra])
            self.miss_by_obj = np.concatenate([self.miss_by_obj, extra])
            if self.acc_rank is not None:
                self.acc_rank = np.concatenate([self.acc_rank, extra])
                self.miss_rank = np.concatenate([self.miss_rank, extra])

    def _count_accesses(self, obj_e: np.ndarray, cat_e: np.ndarray) -> None:
        self.accesses += len(obj_e)
        self.acc_by_cat += np.bincount(cat_e, minlength=_NUM_CATEGORIES)
        self._grow_object_counters(int(obj_e.max()))
        self.acc_by_obj += np.bincount(obj_e, minlength=len(self.acc_by_obj))

    def _count_misses(self, obj_m: np.ndarray, cat_m: np.ndarray) -> None:
        self.misses += len(obj_m)
        self.miss_by_cat += np.bincount(cat_m, minlength=_NUM_CATEGORIES)
        self.miss_by_obj += np.bincount(obj_m, minlength=len(self.miss_by_obj))

    def fill_stats(self, stats: CacheStats) -> None:
        """Write the kernel counters into a fresh :class:`CacheStats`.

        The per-object counters go in as :class:`ObjectColumns`.
        """
        stats.accesses = self.accesses
        stats.misses = self.misses
        stats.writebacks = self.writebacks
        for category in _CATEGORIES:
            stats.accesses_by_category[category] = int(self.acc_by_cat[category])
            stats.misses_by_category[category] = int(self.miss_by_cat[category])
        stats.accesses_by_object = _object_columns(self.acc_by_obj, self.acc_rank)
        stats.misses_by_object = _object_columns(self.miss_by_obj, self.miss_rank)


class _DirectMappedKernel(_Counters):
    """Carried state + chunk consumer for the direct-mapped fast path.

    Its per-object dicts list objects in ascending id order.  Given an
    ``evictions`` dict, each miss that displaces a line adds one to its
    (evictor, victim) object pair, pairs entering in order of their first
    eviction.
    """

    def __init__(
        self, config: CacheConfig, evictions: dict[tuple[int, int], int] | None
    ):
        super().__init__()
        self.num_sets = config.num_sets
        #: Narrowest dtype holding a set index: radix-sorting one or two
        #: bytes is far cheaper than radix-sorting int64 keys.
        self._set_dtype = np.min_scalar_type(self.num_sets - 1)
        #: Resident block index per set; -1 means empty.
        self.tags = np.full(self.num_sets, -1, dtype=np.int64)
        #: Dirty bit of the resident line per set.
        self.dirty = np.zeros(self.num_sets, dtype=bool)
        self.evictions = evictions
        #: Object whose miss filled each set's resident line, when
        #: tracking evictions.
        self.owner = (
            None if evictions is None else np.full(self.num_sets, -1, dtype=np.int64)
        )

    def consume(
        self,
        blocks: np.ndarray,
        obj_e: np.ndarray,
        cat_e: np.ndarray,
        store_e: np.ndarray,
        miss_mask: bool = False,
    ) -> np.ndarray | None:
        """Simulate one chunk of block touches.

        With ``miss_mask``, returns which touches missed, in time order.
        """
        total = len(blocks)
        self._count_accesses(obj_e, cat_e)

        # Sort by set; stable keeps program order within each set-group.
        sets = blocks % self.num_sets
        order = np.argsort(
            sets.astype(self._set_dtype, copy=False), kind="stable"
        )
        b = blocks[order]
        s = sets[order]
        st = store_e[order]

        same_set = np.empty(total, dtype=bool)
        same_set[0] = False
        np.equal(s[1:], s[:-1], out=same_set[1:])
        set_start = ~same_set

        hit = np.empty(total, dtype=bool)
        hit[0] = False
        np.equal(b[1:], b[:-1], out=hit[1:])
        hit &= same_set
        # First access of each set-group compares to the carried tag.
        hit[set_start] = b[set_start] == self.tags[s[set_start]]
        miss = ~hit
        self._count_misses(obj_e[order][miss], cat_e[order][miss])

        # Resident runs: every miss fills a line and starts a run; the
        # first access of a set-group also starts a (possibly continued)
        # run so segment reductions never span two sets.
        run_start = miss | set_start
        seg_id = np.cumsum(run_start) - 1
        seg_starts = np.flatnonzero(run_start)
        seg_dirty = np.bitwise_or.reduceat(st.view(np.int8), seg_starts).astype(bool)
        # A segment that starts with a hit can only be a set-group head
        # continuing the carried resident line: inherit its dirty bit.
        continues = hit[seg_starts]
        if continues.any():
            seg_dirty |= continues & self.dirty[s[seg_starts]]

        # Write-backs: a miss evicts the previous resident run of its set
        # (the carried line for set-group heads) when that run is dirty.
        miss_pos = np.flatnonzero(miss)
        at_head = set_start[miss_pos]
        head_sets = s[miss_pos[at_head]]
        wb_head = (self.tags[head_sets] != -1) & self.dirty[head_sets]
        inner = miss_pos[~at_head]
        wb_inner = seg_dirty[seg_id[inner] - 1]
        self.writebacks += int(wb_head.sum()) + int(wb_inner.sum())

        # Carry out: the last access of each set-group leaves its block
        # resident with its run's accumulated dirty bit.
        set_end = np.empty(total, dtype=bool)
        set_end[-1] = True
        np.not_equal(s[1:], s[:-1], out=set_end[:-1])
        end_pos = np.flatnonzero(set_end)
        if self.owner is not None:
            # A run belongs to the object whose miss started it; a head
            # continuing the carried line keeps the carried owner.  A head
            # miss evicts the carried line (if any), an inner miss the
            # previous run of its set-group.
            obj_s = obj_e[order]
            seg_owner = obj_s[seg_starts].astype(np.int64)
            seg_owner[continues] = self.owner[s[seg_starts[continues]]]
            miss_sets = s[miss_pos]
            victim = np.where(
                at_head, self.owner[miss_sets], seg_owner[seg_id[miss_pos] - 1]
            )
            evicts = ~at_head | (self.tags[miss_sets] != -1)
            self._count_evictions(
                obj_s[miss_pos][evicts], victim[evicts], order[miss_pos][evicts]
            )
            self.owner[s[end_pos]] = seg_owner[seg_id[end_pos]]
        self.tags[s[end_pos]] = b[end_pos]
        self.dirty[s[end_pos]] = seg_dirty[seg_id[end_pos]]
        if not miss_mask:
            return None
        in_time = np.empty(total, dtype=bool)
        in_time[order] = miss
        return in_time

    def _count_evictions(
        self, evictor: np.ndarray, victim: np.ndarray, time: np.ndarray
    ) -> None:
        """Add one chunk's evictions, new pairs in order of first eviction."""
        # Object ids are non-negative int32s: one int64 key per pair.
        keys = (evictor.astype(np.int64) << 32 | victim)[np.argsort(time)]
        pairs, first, counts = np.unique(keys, return_index=True, return_counts=True)
        by_first = np.argsort(first)
        evictions = self.evictions
        for key, count in zip(pairs[by_first].tolist(), counts[by_first].tolist()):
            pair = (key >> 32, key & 0xFFFFFFFF)
            evictions[pair] = evictions.get(pair, 0) + count


class _SetAssociativeKernel(_Counters):
    """Set-associative LRU on the capped stack-distance routine.

    Each set's residents carry between chunks as pseudo-touches, oldest
    first, with their dirty bits; pseudo-touches count no access.  Every
    miss and every pseudo-touch starts a *residency* of its block, dirty
    when any of its touches stores (or the carried line was dirty).
    Every residency is evicted within the chunk except each set's final
    ``ways`` residents, so the chunk's write-backs are its dirty
    residencies minus the dirty final residents, which carry out.

    Per-object dicts list objects in first-touch (accesses) and
    first-miss (misses) order, as the per-access oracle fills them.
    """

    def __init__(self, config: CacheConfig):
        super().__init__()
        self.num_sets = config.num_sets
        self.ways = config.associativity
        self._set_dtype = np.min_scalar_type(self.num_sets - 1)
        #: Resident blocks, by set and oldest first within a set.
        self.resident = np.zeros(0, dtype=np.int64)
        self.resident_dirty = np.zeros(0, dtype=bool)
        self.acc_rank = np.zeros(0, dtype=np.int64)
        self.miss_rank = np.zeros(0, dtype=np.int64)

    @staticmethod
    def _rank_new(counts, ranks, objs: np.ndarray, offset: int) -> None:
        """Rank each object not counted before by its first index in ``objs``."""
        fresh = np.flatnonzero(counts[objs] == 0)
        if len(fresh):
            new, first = np.unique(objs[fresh], return_index=True)
            ranks[new] = offset + fresh[first]

    def consume(
        self,
        blocks: np.ndarray,
        obj_e: np.ndarray,
        cat_e: np.ndarray,
        store_e: np.ndarray,
        miss_mask: bool = False,
    ) -> np.ndarray:
        """Simulate one chunk of block touches.

        Always returns which touches missed, in time order: the per-object
        first-miss order needs it whatever ``miss_mask`` asks.
        """
        total = len(blocks)
        self._grow_object_counters(int(obj_e.max()))
        self._rank_new(self.acc_by_obj, self.acc_rank, obj_e, self.accesses)
        self._count_accesses(obj_e, cat_e)

        carried = len(self.resident)
        touches = np.concatenate([self.resident, blocks])
        stores = np.concatenate([self.resident_dirty, store_e])
        sets = (touches % self.num_sets).astype(self._set_dtype)
        order = np.argsort(sets, kind="stable")
        lru = lru_pass(touches[order], sets[order], self.ways)

        # A run's head misses unless it hits; repeats always hit, and a
        # pseudo-touch (position < carried) is a residency, not an access.
        start = ~lru.hit
        head_pos = order[lru.heads[start]] - carried
        miss = np.zeros(total, dtype=bool)
        miss[head_pos[head_pos >= 0]] = True
        miss_at = np.flatnonzero(miss)
        obj_m = obj_e[miss_at]
        self._rank_new(self.miss_by_obj, self.miss_rank, obj_m, self.misses)
        self._count_misses(obj_m, cat_e[miss_at])

        # Residencies: runs of one block from a start up to its next start.
        run_dirty = np.bitwise_or.reduceat(stores[order].view(np.int8), lru.heads)
        starts_by_block = start[lru.by_block]
        residency = np.empty(len(start), dtype=np.int64)
        residency[lru.by_block] = np.cumsum(starts_by_block) - 1
        residency_starts = np.flatnonzero(starts_by_block)
        dirty = np.bitwise_or.reduceat(run_dirty[lru.by_block], residency_starts) != 0
        kept = residency[lru.residents]
        self.writebacks += int(dirty.sum()) - int(dirty[kept].sum())
        self.resident = lru.blocks[lru.residents]
        self.resident_dirty = dirty[kept]
        return miss


class _ThreeCs:
    """Compulsory / capacity / conflict split of a kernel's misses.

    The fully associative LRU shadow of ``num_lines`` blocks runs on the
    capped stack-distance routine over the time-ordered block touches,
    with its carried stack prepended oldest first.  A miss is compulsory
    on the first touch of its block ever (a sorted array of seen blocks
    carries between chunks), a conflict miss when the shadow would have
    hit, and a capacity miss otherwise.
    """

    def __init__(self, config: CacheConfig):
        self.capacity = config.num_lines
        self.stack = np.zeros(0, dtype=np.int64)
        self.seen = np.zeros(0, dtype=np.int64)
        self.compulsory = 0
        self.capacity_misses = 0
        self.conflict = 0

    def consume(self, blocks: np.ndarray, miss: np.ndarray) -> None:
        """Classify one chunk's misses (``miss`` in time order)."""
        carried = len(self.stack)
        lru = lru_pass(np.concatenate([self.stack, blocks]), None, self.capacity)
        # A repeated touch always hits the cache, so every miss heads a run.
        miss_pos = np.flatnonzero(miss) + carried
        runs = np.searchsorted(lru.heads, miss_pos, side="right") - 1
        conflict = int(lru.hit[runs].sum())

        distinct = np.unique(blocks)
        where = np.searchsorted(self.seen, distinct)
        known = np.zeros(len(distinct), dtype=bool)
        inside = where < len(self.seen)
        known[inside] = self.seen[where[inside]] == distinct[inside]
        fresh = ~known
        compulsory = int(fresh.sum())
        self.seen = np.insert(self.seen, where[fresh], distinct[fresh])

        self.compulsory += compulsory
        self.conflict += conflict
        self.capacity_misses += len(miss_pos) - compulsory - conflict
        self.stack = lru.blocks[lru.residents]

    def fill_stats(self, stats: CacheStats) -> None:
        stats.compulsory += self.compulsory
        stats.capacity += self.capacity_misses
        stats.conflict += self.conflict


class BatchCacheSimulator:
    """Chunk-consuming cache simulator, vectorized for every geometry.

    Args:
        config: Cache geometry; the paper's 8K/32B direct-mapped default.
        classify: Split misses into compulsory / capacity / conflict with
            the vectorized fully associative shadow.
        track_evictions: Record which object's line each miss displaced
            in :attr:`evictions`, the (evictor, victim) matrix the
            conflict debugger reports.  Direct-mapped only.

    Consume whole column chunks via :meth:`consume` (or
    :meth:`consume_misses`), then read :attr:`stats`; :attr:`accesses`
    and :attr:`misses` read the running totals without building it.
    """

    def __init__(
        self,
        config: CacheConfig | None = None,
        classify: bool = False,
        track_evictions: bool = False,
    ):
        self.config = config or CacheConfig()
        self.classify = classify
        #: Every geometry runs vectorized (read by the benchmark tracer).
        self.vectorized = True
        #: (evictor obj_id, victim obj_id) -> eviction count, in order of
        #: first eviction; empty unless ``track_evictions``.
        self.evictions: dict[tuple[int, int], int] = {}
        if self.config.associativity == 1:
            self._kernel = _DirectMappedKernel(
                self.config, self.evictions if track_evictions else None
            )
        elif track_evictions:
            raise ValueError(
                "track_evictions needs a direct-mapped cache, got "
                f"{self.config.associativity} ways"
            )
        else:
            self._kernel = _SetAssociativeKernel(self.config)
        self._three_cs = _ThreeCs(self.config) if classify else None
        self._stats: CacheStats | None = None

    def consume(
        self,
        addr: np.ndarray,
        size: np.ndarray,
        obj_id: np.ndarray,
        category: np.ndarray,
        is_store: np.ndarray,
    ) -> None:
        """Simulate one chunk of (addr, size, obj_id, category, is_store)."""
        self._simulate(addr, size, obj_id, category, is_store, False)

    def consume_misses(
        self,
        addr: np.ndarray,
        size: np.ndarray,
        obj_id: np.ndarray,
        category: np.ndarray,
        is_store: np.ndarray,
    ) -> np.ndarray:
        """Simulate one chunk; return which references missed.

        A reference misses when any block it touches misses, as the
        next cache level sees it.
        """
        return self._simulate(addr, size, obj_id, category, is_store, True)

    def _simulate(self, addr, size, obj_id, category, is_store, misses: bool):
        self._stats = None
        obs.count("sim.events", len(addr))
        obs.count("sim.chunks")
        missed = np.zeros(len(addr), dtype=bool) if misses else None
        if len(addr):
            columns = [obj_id, category, is_store.astype(bool, copy=False)]
            if misses:
                columns.append(np.arange(len(addr)))
            blocks, obj_e, cat_e, store_e, *reference = expand_blocks(
                addr.astype(np.int64, copy=False),
                size.astype(np.int64, copy=False),
                self.config.line_size,
                *columns,
            )
            if len(blocks):
                three_cs = self._three_cs
                miss = self._kernel.consume(
                    blocks,
                    obj_e,
                    cat_e,
                    store_e,
                    miss_mask=misses or three_cs is not None,
                )
                if three_cs is not None:
                    three_cs.consume(blocks, miss)
                if misses:
                    missed[reference[0][miss]] = True
        return missed

    @property
    def accesses(self) -> int:
        """Block accesses simulated so far (the kernel's running total)."""
        return self._kernel.accesses

    @property
    def misses(self) -> int:
        """Misses so far (the kernel's running total)."""
        return self._kernel.misses

    @property
    def stats(self) -> CacheStats:
        """Accumulated statistics, identical to the per-access oracle's."""
        if self._stats is None:
            stats = CacheStats()
            self._kernel.fill_stats(stats)
            if self._three_cs is not None:
                self._three_cs.fill_stats(stats)
            invariants.maybe_check_cache_stats(stats, context="batched kernel")
            self._stats = stats
        return self._stats
