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
workload: lifetime events are replayed through a resolver once, and
addresses are then computed in vectorized chunk-wise gathers
(:meth:`TraceRecorder.iter_resolved` / :meth:`TraceRecorder.resolve`).

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

    Built by :meth:`TraceRecorder.resolve_bases` from one replay of the
    lifetime ops.  An op recorded at position ``p`` fires before access
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
        """Replay lifetime ops through ``resolver`` once; see :class:`ResolvedBases`.

        The arrays are sized by the largest *declared* object id, so no
        full column scan is needed — out-of-range ids in the access
        stream are caught per chunk by :meth:`ResolvedBases.check`.
        """
        max_obj = STACK_OBJECT_ID
        for _position, kind, payload in self.lifetime_ops:
            if kind == _OP_OBJECT:
                max_obj = max(max_obj, payload.obj_id)
            elif kind == _OP_ALLOC:
                max_obj = max(max_obj, payload[0].obj_id)
        bases = np.zeros(max_obj + 1, dtype=np.int64)
        born = np.full(max_obj + 1, _NEVER, dtype=np.int64)
        died = np.full(max_obj + 1, _NEVER, dtype=np.int64)
        base_of = resolver.base_of
        bases[STACK_OBJECT_ID] = base_of[STACK_OBJECT_ID]
        born[STACK_OBJECT_ID] = 0
        for position, kind, payload in self.lifetime_ops:
            if kind == _OP_OBJECT:
                resolver.on_object(payload)
                bases[payload.obj_id] = base_of[payload.obj_id]
                born[payload.obj_id] = position
            elif kind == _OP_ALLOC:
                info, return_addresses = payload
                resolver.on_alloc(info, return_addresses)
                bases[info.obj_id] = base_of[info.obj_id]
                born[info.obj_id] = position
            elif kind == _OP_FREE:
                resolver.on_free(payload)
                # Only a free of a live object ends a life, as in the
                # resolver; a stray or repeated free changes nothing.
                if 0 <= payload <= max_obj and born[payload] <= position < died[payload]:
                    died[payload] = position
        return ResolvedBases(bases, born, died)

    def iter_resolved(
        self, resolver, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, end, addresses)`` chunks of the resolved stream.

        Lifetime ops are replayed through ``resolver`` once, then each
        chunk's addresses are gathered as ``bases[obj] + offset`` — no
        whole-trace temporary is ever materialized, so a memmapped trace
        far larger than RAM streams at one-chunk working set (pair with
        :meth:`advise_done` to also drop the consumed column pages).

        Raises :class:`~repro.trace.events.TraceError` when the recording
        is truncated (no ``on_end`` marker) or an access touches an
        object outside its lifetime (never declared, not yet allocated,
        or already freed) or at a negative offset.
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
        """Replay lifetime ops through ``resolver`` and resolve all addresses.

        Returns the int64 address column ``base_of[obj_id] + offset`` for
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
