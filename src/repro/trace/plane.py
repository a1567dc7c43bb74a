"""Zero-copy storage plane for SoA trace columns.

The recorder's five access columns (``obj``, ``offset``, ``size``,
``cat``, ``store``) are plain fixed-dtype vectors, which makes them
trivially relocatable: the same 18 bytes/event can live on the process
heap (the seed behavior), in a POSIX shared-memory segment
(``multiprocessing.shared_memory``), or in a file-backed memory map.
This module provides that storage layer:

* :class:`SpillWriter` / :func:`iter_spill_chunks` — a chunked on-disk
  staging format so a recording never has to hold its full column set
  in RAM.  Each chunk is ``[u64 event-count][col0 bytes]...[colN bytes]``;
  a short read anywhere raises :class:`~repro.trace.events.TraceError`
  ("spill file ends mid-chunk") rather than yielding garbage columns.
* :class:`HeapStorage` / :class:`ShmStorage` / :class:`MmapStorage` —
  sealed, fixed-size column containers sharing one binary layout
  (16-byte ``RTRC`` header + 8-byte-aligned column blocks).  The shm and
  mmap containers are *attachable*: a second process opens them by name
  or path and reads the columns zero-copy.
* :class:`TraceHandle` — the small picklable description (backend + ref
  + event count + lifetime ops) a worker needs to attach a trace,
  replacing pickled column payloads on the fan-out path.

Cleanup discipline: every storage object registers a
:func:`weakref.finalize` callback, so segments and temp files are
released on garbage collection *and* interpreter exit.  Owners unlink;
attachers only close.  Shared-memory attachers additionally unregister
from the ``multiprocessing`` resource tracker (Python < 3.13 would
otherwise unlink a segment still in use by the creator when the
attaching process exits).
"""

from __future__ import annotations

import mmap
import os
import secrets
import struct
import tempfile
import weakref
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..obs import telemetry as obs
from .events import TraceError

#: The recorder's access-column dtypes: (obj, offset, size, cat, store).
TRACE_COLUMN_DTYPES = (np.int32, np.int64, np.int32, np.int8, np.int8)

#: Bytes per event in the recorder's column layout.
BYTES_PER_EVENT = sum(np.dtype(d).itemsize for d in TRACE_COLUMN_DTYPES)

#: Events per chunk spilled to disk while recording (~18 MB of columns).
DEFAULT_SPILL_CHUNK_EVENTS = 1 << 20

#: Recognized storage backend names.
BACKENDS = ("heap", "shm", "mmap")

_MAGIC = b"RTRC"
_FORMAT = 1
#: magic(4) + version(u16) + reserved(u16) + events(u64)
HEADER_BYTES = 16
_HEADER = struct.Struct("<4sHHQ")
_CHUNK_COUNT = struct.Struct("<Q")


def _align8(value: int) -> int:
    return (value + 7) & ~7


def column_layout(
    events: int, dtypes: Sequence = TRACE_COLUMN_DTYPES
) -> tuple[list[int], int]:
    """Byte offsets of each column block and the total container size.

    Columns follow the header back to back, each starting on an 8-byte
    boundary so the int64 column can always be viewed without copying.
    """
    offsets: list[int] = []
    cursor = HEADER_BYTES
    for dtype in dtypes:
        cursor = _align8(cursor)
        offsets.append(cursor)
        cursor += np.dtype(dtype).itemsize * events
    return offsets, _align8(cursor)


def pack_header(events: int) -> bytes:
    """The 16-byte container header for ``events`` events."""
    return _HEADER.pack(_MAGIC, _FORMAT, 0, events)


def check_header(raw: bytes, events: int, where: str) -> None:
    """Validate a container header, raising :class:`TraceError` on drift."""
    if len(raw) < HEADER_BYTES:
        raise TraceError(f"truncated trace container header in {where}")
    magic, version, _reserved, stored = _HEADER.unpack_from(raw)
    if magic != _MAGIC or version != _FORMAT:
        raise TraceError(f"not a trace container (bad magic/version) in {where}")
    if stored != events:
        raise TraceError(
            f"trace container in {where} holds {stored} events, expected {events}"
        )


def storage_name(hint: str = "trace") -> str:
    """A run-unique, greppable name for segments and temp files."""
    return f"repro-{hint}-{os.getpid()}-{secrets.token_hex(4)}"


# -- chunked spill files ------------------------------------------------------


class SpillWriter:
    """Append column chunks to a spill file, one framed chunk at a time.

    The format is self-delimiting: ``[u64 count]`` then each column's raw
    bytes in declaration order.  Everything is written with buffered
    sequential I/O, so spilling bounds the recorder's RAM at one staging
    chunk regardless of trace length.
    """

    def __init__(self, path: str | os.PathLike, dtypes: Sequence = TRACE_COLUMN_DTYPES):
        self.path = os.fspath(path)
        self.dtypes = tuple(np.dtype(d) for d in dtypes)
        self.events = 0
        self.chunks = 0
        self._file = open(self.path, "wb")

    def write_chunk(self, columns: Sequence[np.ndarray]) -> int:
        """Append one chunk; returns the number of events written."""
        count = len(columns[0])
        self._file.write(_CHUNK_COUNT.pack(count))
        written = _CHUNK_COUNT.size
        for column, dtype in zip(columns, self.dtypes):
            data = np.ascontiguousarray(column, dtype=dtype).tobytes()
            self._file.write(data)
            written += len(data)
        self.events += count
        self.chunks += 1
        obs.count("trace.spill")
        obs.count("trace.spill.bytes", written)
        return count

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def unlink(self) -> None:
        self.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass


def iter_spill_chunks(
    path: str | os.PathLike, dtypes: Sequence = TRACE_COLUMN_DTYPES
) -> Iterator[tuple[np.ndarray, ...]]:
    """Stream the chunks of a spill file back as numpy column tuples.

    Raises :class:`TraceError` when the file ends mid-chunk — a crashed
    or truncated recording must fail loudly, never resolve short.
    """
    dtypes = tuple(np.dtype(d) for d in dtypes)
    with open(path, "rb") as handle:
        while True:
            head = handle.read(_CHUNK_COUNT.size)
            if not head:
                return
            if len(head) < _CHUNK_COUNT.size:
                raise TraceError(f"spill file ends mid-chunk: {path}")
            (count,) = _CHUNK_COUNT.unpack(head)
            columns = []
            for dtype in dtypes:
                need = count * dtype.itemsize
                data = handle.read(need)
                if len(data) < need:
                    raise TraceError(f"spill file ends mid-chunk: {path}")
                columns.append(np.frombuffer(data, dtype=dtype))
            yield tuple(columns)


# -- sealed column containers -------------------------------------------------


class ColumnStorage:
    """Common shape of the three fixed-size column containers.

    A container is *writable* between construction and :meth:`seal`, and
    read-only afterwards.  ``ref`` is the attachment token (shm segment
    name or file path; empty for heap).
    """

    backend = "heap"

    def __init__(self, events: int, dtypes: Sequence = TRACE_COLUMN_DTYPES):
        self.events = events
        self.dtypes = tuple(np.dtype(d) for d in dtypes)
        self.offsets, self.nbytes = column_layout(events, self.dtypes)
        self.owner = True

    @property
    def ref(self) -> str:
        return ""

    def write_at(self, start: int, columns: Sequence[np.ndarray]) -> int:
        raise NotImplementedError

    def seal(self) -> None:
        """Transition to the read-only state (no-op where not needed)."""

    def columns(self) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def advise_done(self, start: int, end: int) -> None:
        """Hint that events ``[start, end)`` will not be read again."""

    def close(self) -> None:
        """Release the container (owners also unlink/unlink the backing)."""


class HeapStorage(ColumnStorage):
    """Process-heap container: plain numpy arrays, the seed's layout."""

    backend = "heap"

    def __init__(self, events: int, dtypes: Sequence = TRACE_COLUMN_DTYPES):
        super().__init__(events, dtypes)
        self._arrays = tuple(np.empty(events, dtype=d) for d in self.dtypes)

    def write_at(self, start: int, columns: Sequence[np.ndarray]) -> int:
        count = len(columns[0])
        for target, column in zip(self._arrays, columns):
            target[start : start + count] = column
        return count

    def columns(self) -> tuple[np.ndarray, ...]:
        return self._arrays


#: Segment names created by this process (attach must not unregister these).
_created_shm_names: set[str] = set()

#: Segments whose close() failed because numpy views still export their
#: buffer; holding them here keeps SharedMemory.__del__ from re-raising.
#: The OS reclaims the mappings at process exit.
_shm_zombies: list = []


def _unregister_shm(name: str) -> None:
    """Detach an attached segment from the multiprocessing resource tracker.

    On Python < 3.13 every ``SharedMemory(name=...)`` attach registers
    the segment for cleanup in the attaching process, so a worker exit
    would unlink a segment the creator still uses.  Attachers therefore
    unregister; only the owner's tracker entry survives.  (Same-process
    attaches — common in tests — skip this, so the creator's entry is
    not clobbered.)
    """
    if name in _created_shm_names:
        return
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


def _close_shm(shm, owner: bool) -> None:
    try:
        shm.close()
    except BufferError:
        _shm_zombies.append(shm)
    except Exception:
        pass
    if owner:
        _created_shm_names.discard(shm.name)
        try:
            shm.unlink()
        except Exception:
            pass


class ShmStorage(ColumnStorage):
    """Shared-memory container (``/dev/shm`` segment, attach by name)."""

    backend = "shm"

    def __init__(
        self,
        events: int,
        name: str | None = None,
        create: bool = True,
        dtypes: Sequence = TRACE_COLUMN_DTYPES,
    ):
        from multiprocessing import shared_memory

        super().__init__(events, dtypes)
        self.owner = create
        if create:
            name = name or storage_name("shm")
            self._shm = shared_memory.SharedMemory(
                name=name, create=True, size=self.nbytes
            )
            _created_shm_names.add(self._shm.name)
            self._shm.buf[:HEADER_BYTES] = pack_header(events)
        else:
            if not name:
                raise TraceError("shm attach requires a segment name")
            try:
                self._shm = shared_memory.SharedMemory(name=name)
            except (FileNotFoundError, OSError) as exc:
                raise TraceError(f"shm segment {name!r} is not attachable: {exc}")
            _unregister_shm(name)
            if self._shm.size < self.nbytes:
                size = self._shm.size
                _close_shm(self._shm, owner=False)
                raise TraceError(
                    f"shm segment {name!r} holds {size} bytes, "
                    f"expected at least {self.nbytes}"
                )
            check_header(bytes(self._shm.buf[:HEADER_BYTES]), events, name)
        self._finalizer = weakref.finalize(self, _close_shm, self._shm, self.owner)

    @property
    def ref(self) -> str:
        return self._shm.name

    def write_at(self, start: int, columns: Sequence[np.ndarray]) -> int:
        count = len(columns[0])
        buf = self._shm.buf
        for offset, dtype, column in zip(self.offsets, self.dtypes, columns):
            data = np.ascontiguousarray(column, dtype=dtype).tobytes()
            begin = offset + start * dtype.itemsize
            buf[begin : begin + len(data)] = data
        return count

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(
            np.frombuffer(self._shm.buf, dtype=dtype, count=self.events, offset=offset)
            for offset, dtype in zip(self.offsets, self.dtypes)
        )

    def close(self) -> None:
        self._finalizer()


class MmapStorage(ColumnStorage):
    """File-backed container: built with positional writes, read via mmap.

    The build path uses ``os.pwrite`` (page cache only, no mapping), so
    writing a trace far larger than RAM never grows the writer's
    resident set.  The read path maps the file once and can drop
    already-consumed pages with ``madvise(MADV_DONTNEED)``
    (:meth:`advise_done`), bounding a streaming consumer's RSS at one
    chunk window.
    """

    backend = "mmap"

    def __init__(
        self,
        path: str | os.PathLike,
        events: int,
        create: bool = True,
        persist: bool = False,
        dtypes: Sequence = TRACE_COLUMN_DTYPES,
    ):
        super().__init__(events, dtypes)
        self.path = os.fspath(path)
        self.owner = create and not persist
        # The finalizer closes over this mutable cell, so the live fd and
        # mapping are released both on close() and at GC/interpreter exit.
        self._cell: dict = {"fd": None, "mm": None}
        if create:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.ftruncate(fd, self.nbytes)
                os.pwrite(fd, pack_header(events), 0)
            except OSError:
                os.close(fd)
                raise
        else:
            try:
                fd = os.open(self.path, os.O_RDONLY)
            except OSError as exc:
                raise TraceError(f"trace file {self.path} is not attachable: {exc}")
            try:
                size = os.fstat(fd).st_size
                if size != self.nbytes:
                    raise TraceError(
                        f"trace file {self.path} holds {size} bytes, "
                        f"expected {self.nbytes} (truncated or stale)"
                    )
                check_header(os.pread(fd, HEADER_BYTES, 0), events, self.path)
            except TraceError:
                os.close(fd)
                raise
        self._cell["fd"] = fd
        self._finalizer = weakref.finalize(
            self, _cleanup_mmap_state, self._cell, self.path, self.owner
        )

    @property
    def ref(self) -> str:
        return self.path

    def write_at(self, start: int, columns: Sequence[np.ndarray]) -> int:
        count = len(columns[0])
        for offset, dtype, column in zip(self.offsets, self.dtypes, columns):
            data = np.ascontiguousarray(column, dtype=dtype).tobytes()
            os.pwrite(self._cell["fd"], data, offset + start * dtype.itemsize)
        return count

    def _mapping(self) -> mmap.mmap:
        if self._cell["mm"] is None:
            self._cell["mm"] = mmap.mmap(
                self._cell["fd"], self.nbytes, access=mmap.ACCESS_READ
            )
        return self._cell["mm"]

    def columns(self) -> tuple[np.ndarray, ...]:
        mapping = self._mapping()
        return tuple(
            np.frombuffer(mapping, dtype=dtype, count=self.events, offset=offset)
            for offset, dtype in zip(self.offsets, self.dtypes)
        )

    def advise_done(self, start: int, end: int) -> None:
        mm = self._cell["mm"]
        if mm is None or end <= start:
            return
        page = mmap.PAGESIZE
        for offset, dtype in zip(self.offsets, self.dtypes):
            lo = offset + start * dtype.itemsize
            hi = offset + end * dtype.itemsize
            # Align inward so neighboring, still-unread events keep
            # their pages; the unaligned edges are at most one page.
            lo = (lo + page - 1) // page * page
            hi = hi // page * page
            if hi > lo:
                try:
                    mm.madvise(mmap.MADV_DONTNEED, lo, hi - lo)
                except (OSError, ValueError):
                    return

    def close(self) -> None:
        self._finalizer()


def _cleanup_mmap_state(state: dict, path: str, owner: bool) -> None:
    mm = state.get("mm")
    if mm is not None:
        try:
            mm.close()
        except Exception:
            pass
    fd = state.get("fd")
    if fd is not None:
        try:
            os.close(fd)
        except Exception:
            pass
    if owner:
        try:
            os.unlink(path)
        except OSError:
            pass


def create_storage(
    backend: str,
    events: int,
    directory: str | os.PathLike | None = None,
    path: str | os.PathLike | None = None,
    persist: bool = False,
) -> ColumnStorage:
    """Allocate a writable container for ``events`` events.

    ``mmap`` containers land at ``path`` when given, else in a
    run-unique file under ``directory`` (default: the system temp dir);
    ``persist=True`` keeps the file on close (store artifacts).
    """
    if backend == "heap":
        return HeapStorage(events)
    if backend == "shm":
        return ShmStorage(events, create=True)
    if backend == "mmap":
        if path is None:
            root = os.fspath(directory) if directory else tempfile.gettempdir()
            path = os.path.join(root, storage_name("trace") + ".cols")
        return MmapStorage(path, events, create=True, persist=persist)
    raise ValueError(f"unknown trace storage backend: {backend!r}")


def open_storage(backend: str, ref: str, events: int) -> ColumnStorage:
    """Attach an existing sealed container by its handle ref."""
    if backend == "shm":
        return ShmStorage(events, name=ref, create=False)
    if backend == "mmap":
        return MmapStorage(ref, events, create=False)
    raise ValueError(f"backend {backend!r} is not attachable")


# -- handles ------------------------------------------------------------------


@dataclass(frozen=True)
class TraceHandle:
    """Picklable description of a sealed, attachable recorded trace.

    A handle is what crosses process boundaries: a few strings and ints
    plus the (rare) lifetime ops — never the access columns themselves.
    Workers attach the named segment or file zero-copy via
    :meth:`repro.trace.buffer.TraceRecorder.attach`.
    """

    backend: str
    ref: str
    events: int
    ops: tuple = field(default_factory=tuple)
    compute_instructions: int = 0
    max_stack_depth: int = 0
    fingerprint: str | None = None
