"""The on-disk container for SoA trace columns.

The recorder's five access columns (``obj``, ``offset``, ``size``,
``cat``, ``store``) are plain fixed-dtype vectors, so a recorded trace
persists as one flat file: a 16-byte ``RTRC`` header (magic, version,
event count) followed by the five column blocks, each 8-byte aligned.
Store trace artifacts (:mod:`repro.store.traces`) and spooled serve
uploads (:mod:`repro.serve.daemon`) share this layout, and
:class:`MmapStorage` attaches either one as a read-only memory map.

Cleanup discipline: every :class:`MmapStorage` registers a
:func:`weakref.finalize` callback, so its descriptor and mapping are
released on :meth:`~MmapStorage.close`, garbage collection *and*
interpreter exit.  Closing never unlinks the file: its owner (the store
or the serve spool) decides when the file goes.
"""

from __future__ import annotations

import mmap
import os
import struct
import weakref
from typing import Sequence

import numpy as np

from .events import TraceError

#: The recorder's access-column dtypes: (obj, offset, size, cat, store).
TRACE_COLUMN_DTYPES = (np.int32, np.int64, np.int32, np.int8, np.int8)

_MAGIC = b"RTRC"
_FORMAT = 1
#: magic(4) + version(u16) + reserved(u16) + events(u64)
HEADER_BYTES = 16
_HEADER = struct.Struct("<4sHHQ")


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


class MmapStorage:
    """File-backed container: built with positional writes, read via mmap.

    ``create=True`` truncates ``path`` to the container size and writes
    the header; :meth:`write_at` then fills the columns with
    ``os.pwrite`` (page cache only, no mapping).  ``create=False``
    attaches an existing file after checking its byte size and header
    against ``events``.  The read path maps the file once and can drop
    already-consumed pages with ``madvise(MADV_DONTNEED)``
    (:meth:`advise_done`), bounding a streaming consumer's RSS at one
    chunk window.
    """

    def __init__(self, path: str | os.PathLike, events: int, create: bool = True):
        self.events = events
        self.dtypes = tuple(np.dtype(d) for d in TRACE_COLUMN_DTYPES)
        self.offsets, self.nbytes = column_layout(events, self.dtypes)
        self.path = os.fspath(path)
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
        self._finalizer = weakref.finalize(self, _close_mmap_state, self._cell)

    def write_at(self, start: int, columns: Sequence[np.ndarray]) -> int:
        """Write column slices at event ``start``; returns the event count."""
        count = len(columns[0])
        for offset, dtype, column in zip(self.offsets, self.dtypes, columns):
            data = np.ascontiguousarray(column, dtype=dtype).tobytes()
            os.pwrite(self._cell["fd"], data, offset + start * dtype.itemsize)
        return count

    def _mapping(self) -> mmap.mmap:
        if self._cell["mm"] is None:
            if self._cell["fd"] is None:
                raise TraceError(f"trace file {self.path} is closed")
            self._cell["mm"] = mmap.mmap(
                self._cell["fd"], self.nbytes, access=mmap.ACCESS_READ
            )
        return self._cell["mm"]

    def columns(self) -> tuple[np.ndarray, ...]:
        """Zero-copy views of the five columns over the read-only mapping."""
        mapping = self._mapping()
        return tuple(
            np.frombuffer(mapping, dtype=dtype, count=self.events, offset=offset)
            for offset, dtype in zip(self.offsets, self.dtypes)
        )

    def advise_done(self, start: int, end: int) -> None:
        """Hint that events ``[start, end)`` will not be read again."""
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
        """Release the descriptor and mapping; the file stays on disk."""
        self._finalizer()


def _close_mmap_state(state: dict) -> None:
    # Forget the descriptor first: its number may be reused by the next
    # open, and a later read must fail rather than map that file.
    mm, fd = state["mm"], state["fd"]
    state["mm"] = state["fd"] = None
    if mm is not None:
        try:
            mm.close()
        except Exception:
            pass
    if fd is not None:
        try:
            os.close(fd)
        except Exception:
            pass
