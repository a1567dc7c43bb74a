"""Structure-of-arrays trace recording: the batched pipeline's substrate.

Handing every memory reference to a sink as one Python method call, and
to a simulator as one Python-level cache lookup, is the interpreter-bound
hot path of a per-event pipeline.  This module restructures the data
flow: accesses are sunk into flat *columns* (``array`` module buffers
exposed as numpy arrays) instead of per-event objects, and consumers
take whole chunks at a time into vectorized kernels
(:mod:`repro.cache.batch`, :mod:`repro.profiling.batch`).

:class:`TraceRecorder` is a :class:`~repro.trace.sinks.TraceSink` that
materializes one workload run as *unresolved* access columns
``(obj_id, offset, size, category, is_store)`` plus the interleaved
object-lifetime events.  Its access writer is the ``extend`` of one
pending list, so :class:`~repro.vm.program.Program` records an access
with one ``list.extend`` of a five-field tuple and no sink frame.  The
recorder converts the pending list into its five typed columns a block
at a time: when an op hook finds :data:`BLOCK_ACCESSES` pending (no
paper, sweep or drift trace goes more than 1,161 accesses without an
op, so the list stays bounded), and before
:meth:`TraceRecorder.columns`, ``len()`` and ``on_end``.  Every op
position counts the accesses still pending.

Because object ids are run-unique (never reused), a recorded trace can
be re-simulated under any placement policy without re-running the
workload.  A finished recording walks its lifetime ops once
(:attr:`TraceRecorder.lifetime_walk`, a :class:`LifetimeWalk` of int
columns kept with the recording): every object's live interval, the
statics in op order and the heap stream of allocations and frees.  A
resolver turns that walk into each object's base address in one call
(:meth:`TraceRecorder.resolve_bases`), and addresses are then computed
in vectorized chunk-wise gathers (:meth:`TraceRecorder.iter_resolved` /
:meth:`TraceRecorder.resolve`).

A finished recording keeps its columns in-process, or reads them
zero-copy from one memory-mapped file when it was attached from a store
artifact or a spooled serve upload (:meth:`TraceRecorder.from_storage`
over a :class:`~repro.trace.plane.MmapStorage`).
"""

from __future__ import annotations

import struct
from array import array
from typing import Callable, Iterator

import numpy as np

from ..naming.xor import xor_fold
from . import plane
from .events import Category, ObjectInfo, STACK_OBJECT_ID, TraceError
from .sinks import TraceSink
from .stats import ObjectColumns, WorkloadStats, object_columns

#: Default number of events per consumed chunk (events, not bytes).
DEFAULT_CHUNK_EVENTS = 1 << 16

#: ``Category`` members indexed by value, for int -> enum conversion.
_CATEGORIES = tuple(Category)

#: Accesses pending in the recorder before an op hook converts them.
BLOCK_ACCESSES = 1 << 13

#: Fields of one pending access: ``(obj_id, offset, size, is_store,
#: category)``, the tuple :meth:`TraceRecorder.access_writer` receives.
_ACCESS_FIELDS = 5

_BLOCK_ITEMS = BLOCK_ACCESSES * _ACCESS_FIELDS

#: ``array`` type codes of the access columns, in ``columns()`` order.
_COLUMN_CODES = ("i", "q", "i", "b", "b")

#: The access field each column takes, in ``columns()`` order.
_COLUMN_FIELDS = (0, 1, 2, 4, 3)

# Binding kinds of a LifetimeWalk: which column an id's base comes from.
CONST = 0
GLOBAL = 1
ALLOC = 2

# Lifetime-op tags recorded by TraceRecorder.
_OP_OBJECT = 0
_OP_ALLOC = 1
_OP_FREE = 2
_OP_STACK_DEPTH = 3
_OP_COMPUTE = 4

#: Access position no trace reaches: the open end of a live interval.
_NEVER = np.iinfo(np.int64).max


class ResolvedBases:
    """Each object id's placed base address and live interval.

    Built by :meth:`TraceRecorder.resolve_bases` from the recording's
    :class:`LifetimeWalk`, whose ``born`` and ``died`` columns it shares
    (read-only).  An op recorded at position ``p`` fires before access
    ``p``, so object ``i`` is live at the access positions
    ``born[i] <= p < died[i]``; an id no op declared is never live.
    :meth:`check` is where every batched consumer rejects an access
    outside its object's lifetime, as the per-event replay sinks do, or
    at a negative offset, which no recorder emits.
    """

    def __init__(self, bases: np.ndarray, born: np.ndarray, died: np.ndarray):
        self.bases = bases
        self.born = born
        self.died = died

    def check(self, start: int, obj: np.ndarray, offset: np.ndarray) -> None:
        """Raise :class:`TraceError` unless accesses ``start..`` hit live objects.

        ``obj`` and ``offset`` are the accesses' object-id and offset
        columns; every offset must be non-negative.
        """
        if not len(obj):
            return
        in_range = (obj >= 0) & (obj < len(self.bases))
        ids = obj if in_range.all() else np.where(in_range, obj, STACK_OBJECT_ID)
        position = np.arange(start, start + len(obj))
        dead = ~in_range | (position < self.born[ids]) | (position >= self.died[ids])
        if dead.any():
            bad = int(obj[np.argmax(dead)])
            raise TraceError(
                f"corrupt trace: access to unknown object id {bad} "
                "(never declared or allocated)"
            )
        check_offsets(start, obj, offset)


class LifetimeWalk:
    """One pass over a recording's lifetime ops: what every placement shares.

    Object ids index ``born`` and ``died``, int64 columns sized by the
    largest declared id.  An object declaration or allocation at
    position ``p`` sets ``born`` to ``p`` (the last one wins); a free at
    ``p`` sets ``died`` to ``p`` only while the object is live
    (``born <= p < died``), so a repeated or stray free changes nothing.
    The stack object is live from position 0.

    The rest is what a resolver places, each in op order:

    * ``const_sizes``: one entry per declared constant;
    * ``global_sizes`` and ``global_symbols``: one entry per other
      declaration, all placed as globals;
    * ``alloc_sizes``: one entry per allocation, whose XOR names
      :meth:`heap_names` folds per name depth;
    * ``heap_stream``: the allocator's calls, ``-1`` for the next
      allocation and ``k >= 0`` for the free of allocation ``k``.  A free
      releases the id's latest allocation unless the id was freed since;
      a free of an id with no address is dropped;
    * ``pad_is_heap``: the globals and allocations as False and True,
      the order in which a random placement draws its pads.

    An id's base is the one its last declaration or allocation got:
    ``final[kind]`` holds the ids whose last binding was of ``kind``
    (:data:`CONST`, :data:`GLOBAL` or :data:`ALLOC`) and the entry of
    that kind's column each takes.

    Raises :class:`TraceError` when an op frees a declared static or the
    stack: only heap objects are ever freed.
    """

    def __init__(self, lifetime_ops: list[tuple[int, int, object]]):
        max_obj = STACK_OBJECT_ID
        for _position, kind, payload in lifetime_ops:
            if kind == _OP_OBJECT:
                max_obj = max(max_obj, payload.obj_id)
            elif kind == _OP_ALLOC:
                max_obj = max(max_obj, payload[0].obj_id)
        born = [_NEVER] * (max_obj + 1)
        died = [_NEVER] * (max_obj + 1)
        born[STACK_OBJECT_ID] = 0
        sizes: tuple[list[int], ...] = ([], [], [])
        global_symbols: list[str] = []
        return_addresses: list[tuple[int, ...]] = []
        heap_stream: list[int] = []
        pad_is_heap: list[bool] = []
        # Each id's last binding: (kind, entry in that kind's column).
        final: dict[int, tuple[int, int]] = {}
        # Ids holding an address: their allocation, or -1 for a static.
        bound = {STACK_OBJECT_ID: -1}
        for position, kind, payload in lifetime_ops:
            if kind == _OP_OBJECT:
                obj_id = payload.obj_id
                bound[obj_id] = -1
                born[obj_id] = position
                if payload.category is Category.CONST:
                    final[obj_id] = (CONST, len(sizes[CONST]))
                    sizes[CONST].append(payload.size)
                else:
                    final[obj_id] = (GLOBAL, len(sizes[GLOBAL]))
                    sizes[GLOBAL].append(payload.size)
                    global_symbols.append(payload.symbol)
                    pad_is_heap.append(False)
            elif kind == _OP_ALLOC:
                info, addresses = payload
                obj_id = info.obj_id
                index = len(sizes[ALLOC])
                final[obj_id] = (ALLOC, index)
                bound[obj_id] = index
                born[obj_id] = position
                sizes[ALLOC].append(info.size)
                return_addresses.append(addresses)
                heap_stream.append(-1)
                pad_is_heap.append(True)
            elif kind == _OP_FREE:
                index = bound.pop(payload, None)
                if index is not None:
                    if index < 0:
                        raise TraceError(
                            f"corrupt trace: free of non-heap object id {payload} "
                            f"at position {position}"
                        )
                    heap_stream.append(index)
                if 0 <= payload <= max_obj:
                    if born[payload] <= position < died[payload]:
                        died[payload] = position
        self.born = _frozen(born)
        self.died = _frozen(died)
        self.const_sizes, self.global_sizes, self.alloc_sizes = map(_frozen, sizes)
        self.global_symbols = global_symbols
        self.heap_stream = _frozen(heap_stream)
        self.pad_is_heap = np.array(pad_is_heap, dtype=bool)
        split: list[tuple[list[int], list[int]]] = [([], []) for _ in sizes]
        for obj_id, (kind, index) in final.items():
            split[kind][0].append(obj_id)
            split[kind][1].append(index)
        self.final = tuple((_frozen(ids), _frozen(entries)) for ids, entries in split)
        self._return_addresses = return_addresses
        self._names: dict[int, list[int]] = {}

    def heap_names(self, depth: int) -> list[int]:
        """Each allocation's XOR name at fold ``depth``, memoized per depth."""
        names = self._names.get(depth)
        if names is None:
            names = [xor_fold(addresses, depth) for addresses in self._return_addresses]
            self._names[depth] = names
        return names


def _frozen(values: list[int]) -> np.ndarray:
    """A read-only int64 column: a walk is shared by every resolution."""
    column = np.array(values, dtype=np.int64)
    column.flags.writeable = False
    return column


def check_offsets(start: int, obj: np.ndarray, offset: np.ndarray) -> None:
    """Raise :class:`TraceError` if an access has a negative offset.

    ``obj`` and ``offset`` are the columns of the accesses from position
    ``start`` on.  An access reaches its object at ``offset >= 0``; a
    negative offset would name a chunk of another object once chunks
    are packed per entity.
    """
    if len(offset) and int(offset.min()) < 0:
        bad = int(np.argmax(offset < 0))
        raise TraceError(
            f"corrupt trace: negative offset {int(offset[bad])} into object id "
            f"{int(obj[bad])} at position {start + bad}"
        )


class TraceRecorder(TraceSink):
    """Record one workload run as SoA access columns plus lifetime ops.

    The access stream lives in five flat columns rather than per-event
    Python objects, and the much rarer lifetime events (object
    declarations, allocs, frees, stack growth, compute batches) are kept
    as a positioned op list so exact interleaving can be reproduced.
    Accesses arrive as flat fields in a pending list and are converted
    into the columns a block at a time (see the module docstring).
    """

    def __init__(self) -> None:
        self._storage: plane.MmapStorage | None = None
        #: The typed access columns, in :meth:`columns` order.
        self._arrays = tuple(array(code) for code in _COLUMN_CODES)
        #: Accesses not yet converted, five flat fields each.
        self._pending: list = []
        #: (position-in-access-stream, op-kind, payload) in trace order.
        self.ops: list[tuple[int, int, object]] = []
        self.compute_instructions = 0
        self.max_stack_depth = 0
        self.ended = False
        self._columns: tuple[np.ndarray, ...] | None = None
        self._lifetime_ops: list[tuple[int, int, object]] | None = None
        self._walk: LifetimeWalk | None = None

    @classmethod
    def from_storage(
        cls,
        storage: plane.MmapStorage,
        ops: list[tuple[int, int, object]] | tuple = (),
        compute_instructions: int = 0,
        max_stack_depth: int = 0,
        fingerprint: str | None = None,
    ) -> "TraceRecorder":
        """Wrap an attached column file as a finished recording."""
        recorder = cls()
        recorder._storage = storage
        recorder.ops = list(ops)
        recorder.compute_instructions = compute_instructions
        recorder.max_stack_depth = max_stack_depth
        recorder.ended = True
        if fingerprint is not None:
            recorder._fingerprint = (storage.events, fingerprint)
        return recorder

    def close(self) -> None:
        """Release an attached column file's descriptor and mapping."""
        self._columns = None
        if self._storage is not None:
            self._storage.close()

    def advise_done(self, start: int, end: int) -> None:
        """Hint that events ``[start, end)`` will not be read again.

        On an attached file this drops the already-streamed pages from
        the resident set (``madvise(MADV_DONTNEED)``); in-process columns
        ignore it.  Chunked consumers call it after each chunk.
        """
        if self._storage is not None:
            self._storage.advise_done(start, end)

    # -- sink hooks ---------------------------------------------------------

    def access_writer(self) -> Callable[[tuple], None]:
        """The pending list's ``extend``: one call records one access."""
        return self._pending.extend

    def on_access(self, obj_id, offset, size, is_store, category) -> None:
        self._pending.extend((obj_id, offset, size, is_store, category))

    def _position(self) -> int:
        """The next access's position; converts a full pending block first."""
        if len(self._pending) >= _BLOCK_ITEMS:
            self._flush()
        return len(self._arrays[0]) + len(self._pending) // _ACCESS_FIELDS

    def on_object(self, info: ObjectInfo) -> None:
        self.ops.append((self._position(), _OP_OBJECT, info))

    def on_alloc(self, info: ObjectInfo, return_addresses) -> None:
        self.ops.append(
            (self._position(), _OP_ALLOC, (info, tuple(return_addresses)))
        )

    def on_free(self, obj_id: int) -> None:
        self.ops.append((self._position(), _OP_FREE, obj_id))

    def on_compute(self, instructions: int) -> None:
        # The most frequent op: ``_position`` inlined.
        self.compute_instructions += instructions
        pending = self._pending
        if len(pending) >= _BLOCK_ITEMS:
            self._flush()
        position = len(self._arrays[0]) + len(pending) // _ACCESS_FIELDS
        self.ops.append((position, _OP_COMPUTE, instructions))

    def on_stack_depth(self, depth: int) -> None:
        if depth > self.max_stack_depth:
            self.max_stack_depth = depth
            self.ops.append((self._position(), _OP_STACK_DEPTH, depth))

    def on_end(self) -> None:
        self._flush()
        self.ended = True

    def _flush(self) -> None:
        """Append the pending accesses to the typed columns.

        Raises :class:`OverflowError` when a field does not fit its
        column, as appending it to the ``array`` would.
        """
        pending = self._pending
        if not pending:
            return
        # Views of the columns pin their buffers; a column cannot grow
        # while one is exported.
        self._columns = None
        block = np.frombuffer(
            struct.pack(f"{len(pending)}q", *pending), dtype=np.int64
        ).reshape(-1, _ACCESS_FIELDS)
        for column, field in zip(self._arrays, _COLUMN_FIELDS):
            values = block[:, field]
            typed = values.astype(column.typecode)
            if not np.array_equal(typed, values):
                bad = int(values[np.argmax(typed != values)])
                raise OverflowError(f"access value {bad} overflows {typed.dtype}")
            column.frombytes(typed.tobytes())
        pending.clear()

    # -- access columns -----------------------------------------------------

    def __len__(self) -> int:
        return self.events

    @property
    def events(self) -> int:
        """Number of recorded memory references."""
        if self._storage is not None:
            return self._storage.events
        self._flush()
        return len(self._arrays[0])

    def columns(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Numpy views of (obj_id, offset, size, category, is_store).

        Attached recordings view the mapped file zero-copy; in-process
        ones view the column buffers as recorded so far, pending
        accesses included.
        """
        if self._storage is not None:
            if self._columns is None:
                self._columns = self._storage.columns()
            return self._columns
        events = self.events
        if self._columns is None or len(self._columns[0]) != events:
            self._columns = self._recorded_columns()
        return self._columns

    def _recorded_columns(self) -> tuple[np.ndarray, ...]:
        return tuple(
            np.frombuffer(column, dtype=dtype) if column else np.empty(0, dtype)
            for column, dtype in zip(self._arrays, plane.TRACE_COLUMN_DTYPES)
        )

    @property
    def lifetime_ops(self) -> list[tuple[int, int, object]]:
        """The ops that affect object lifetimes — compute batches excluded.

        Compute ops usually dominate the op list but only carry an
        instruction count (already totalled in ``compute_instructions``),
        so consumers that replay lifetime state — address resolution,
        batched profiling, statistics — iterate this filtered view.
        """
        if self._lifetime_ops is None or not self.ended:
            self._lifetime_ops = [
                op for op in self.ops if op[1] != _OP_COMPUTE
            ]
        return self._lifetime_ops

    @property
    def lifetime_walk(self) -> LifetimeWalk:
        """The one walk of :attr:`lifetime_ops` every resolution shares.

        Kept with a finished recording, built afresh while recording.
        Raises :class:`TraceError` when an op frees a non-heap object.
        """
        if self._walk is not None:
            return self._walk
        walk = LifetimeWalk(self.lifetime_ops)
        if self.ended:
            self._walk = walk
        return walk

    def require_ended(self) -> None:
        """Raise :class:`TraceError` unless the recording saw ``on_end``."""
        if not self.ended:
            raise TraceError(
                "truncated trace: recording ended without its on_end marker"
            )

    @property
    def nbytes(self) -> int:
        """Approximate memory/storage footprint of the access columns."""
        if self._storage is not None:
            return self._storage.nbytes
        self._flush()
        return sum(column.itemsize * len(column) for column in self._arrays)

    # -- consumers ----------------------------------------------------------

    def replay(self, sink: TraceSink) -> None:
        """Feed the recorded stream into a scalar sink, event for event.

        Lifetime ops are interleaved at their recorded positions, so a
        sink observes exactly the stream the original run produced.
        """
        obj, offset, size, cat, store = self.columns()
        obj_l = obj.tolist()
        offset_l = offset.tolist()
        size_l = size.tolist()
        cat_l = [_CATEGORIES[c] for c in cat.tolist()]
        store_l = [bool(s) for s in store.tolist()]
        on_access = sink.on_access
        position = 0
        for op_position, kind, payload in self.ops:
            while position < op_position:
                on_access(
                    obj_l[position],
                    offset_l[position],
                    size_l[position],
                    store_l[position],
                    cat_l[position],
                )
                position += 1
            self._replay_op(sink, kind, payload)
        total = len(obj_l)
        while position < total:
            on_access(
                obj_l[position],
                offset_l[position],
                size_l[position],
                store_l[position],
                cat_l[position],
            )
            position += 1
        if self.ended:
            sink.on_end()

    @staticmethod
    def _replay_op(sink: TraceSink, kind: int, payload) -> None:
        if kind == _OP_OBJECT:
            sink.on_object(payload)
        elif kind == _OP_ALLOC:
            info, return_addresses = payload
            sink.on_alloc(info, return_addresses)
        elif kind == _OP_FREE:
            sink.on_free(payload)
        elif kind == _OP_STACK_DEPTH:
            sink.on_stack_depth(payload)
        else:
            sink.on_compute(payload)

    def resolve_bases(self, resolver) -> ResolvedBases:
        """Each object's base address under ``resolver`` and its live interval.

        One call of ``resolver.resolve`` on :attr:`lifetime_walk`.  The
        arrays are sized by the largest *declared* object id, so no full
        column scan is needed — out-of-range ids in the access stream are
        caught per chunk by :meth:`ResolvedBases.check`.
        """
        return resolver.resolve(self.lifetime_walk)

    def iter_resolved(
        self, resolver, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, end, addresses)`` chunks of the resolved stream.

        Bases are resolved once (:meth:`resolve_bases`), then each
        chunk's addresses are gathered as ``bases[obj] + offset`` — no
        whole-trace temporary is ever materialized, so a memmapped trace
        far larger than RAM streams at one-chunk working set (pair with
        :meth:`advise_done` to also drop the consumed column pages).

        Raises :class:`~repro.trace.events.TraceError` when the recording
        is truncated (no ``on_end`` marker), an op frees a non-heap
        object, or an access touches an object outside its lifetime
        (never declared, not yet allocated, or already freed) or at a
        negative offset.
        """
        self.require_ended()
        obj, offset, _size, _cat, _store = self.columns()
        resolved = self.resolve_bases(resolver)
        total = len(obj)
        for start in range(0, total, chunk_events):
            end = min(start + chunk_events, total)
            obj_chunk = np.asarray(obj[start:end])
            offset_chunk = np.asarray(offset[start:end])
            resolved.check(start, obj_chunk, offset_chunk)
            yield start, end, resolved.bases[obj_chunk] + offset_chunk

    def resolve(self, resolver) -> np.ndarray:
        """Resolve every recorded access's address under ``resolver``.

        Returns the int64 address column ``bases[obj_id] + offset`` for
        every recorded access.  Correct because object ids are run-unique:
        an object's base address never changes between its allocation and
        its free, so the interleaving of accesses with lifetime events
        cannot change the result.

        This materializes the whole address column; chunked consumers
        (:func:`repro.runtime.driver.measure_trace`) should iterate
        :meth:`iter_resolved` instead.
        """
        addresses = np.empty(self.events, dtype=np.int64)
        for start, end, chunk in self.iter_resolved(resolver):
            addresses[start:end] = chunk
        return addresses

    def stats(self) -> WorkloadStats:
        """Compute Table 1 workload statistics from the columns, vectorized.

        The only way a run becomes Table 1 statistics; equal to what the
        per-event ``StatsSink`` in ``tests/oracles.py`` collects from the
        same run.
        """
        obj, _offset, _size, cat, store = self.columns()
        stats = WorkloadStats()
        total = len(obj)
        stores = int(store.sum()) if total else 0
        stats.instructions = total + self.compute_instructions
        stats.stores = stores
        stats.loads = total - stores
        by_cat = np.bincount(cat, minlength=len(_CATEGORIES))
        for category in _CATEGORIES:
            stats.refs_by_category[category] = int(by_cat[category])
        by_obj = np.bincount(obj)
        nonzero = np.flatnonzero(by_obj)
        stats.refs_by_object = ObjectColumns(nonzero, by_obj[nonzero])
        # The replay's object table: a free looks up the size it had then.
        sizes = {STACK_OBJECT_ID: 0}
        categories = {STACK_OBJECT_ID: Category.STACK}
        for _position, kind, payload in self.lifetime_ops:
            if kind == _OP_OBJECT:
                sizes[payload.obj_id] = payload.size
                categories[payload.obj_id] = payload.category
            elif kind == _OP_ALLOC:
                info, _return_addresses = payload
                stats.alloc_count += 1
                stats.alloc_bytes += info.size
                sizes[info.obj_id] = info.size
                categories[info.obj_id] = Category.HEAP
            elif kind == _OP_FREE:
                stats.free_count += 1
                stats.free_bytes += sizes.get(payload, 0)
            elif kind == _OP_STACK_DEPTH:
                if payload > stats.max_stack_depth:
                    stats.max_stack_depth = payload
                    sizes[STACK_OBJECT_ID] = payload
        stats.object_sizes = object_columns(sizes)
        stats.object_categories = object_columns(categories)
        return stats


def record_trace(workload, input_name: str | None = None) -> TraceRecorder:
    """Run ``workload`` once and return its recorded trace."""
    recorder = TraceRecorder()
    workload.run(recorder, input_name or workload.train_input)
    return recorder
