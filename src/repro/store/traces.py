"""Fingerprint-keyed memmap trace artifacts: record once, attach zero-copy.

A recorded trace is the most expensive artifact in the pipeline — it
costs a full workload run — yet the seed store only remembered its
*fingerprint* (the ``trace-meta`` entry), so every process that needed
the columns re-ran the workload.  This module persists the columns
themselves:

* The **data file** lives under ``<root>/traces/<fp[:2]>/<fp>.trace`` in
  the :mod:`repro.trace.plane` container format, written atomically
  (temp + ``os.replace``) by streaming the source columns chunk-wise.
* The **store entry** (kind ``trace``) carries the event count, the
  JSON-encoded lifetime ops, and the expected data-file byte size, keyed
  by the fingerprint — so the usual envelope validation (salt, payload
  digest) guards the metadata, and the byte-size + header check guards
  the binary file.

Loading attaches the data file as a read-only memory map
(:meth:`~repro.trace.buffer.TraceRecorder.from_storage`): no copy, no
workload run, bounded RSS when streamed with ``advise_done``.  A
truncated or tampered data file degrades exactly like a corrupt JSON
entry (``tests/test_store_corruption.py``): the entry and file are
deleted, ``store.corrupt`` is counted, and the caller re-records and
rewrites.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..obs import telemetry as obs
from ..trace import plane
from ..trace.buffer import (
    _OP_ALLOC,
    _OP_OBJECT,
    DEFAULT_CHUNK_EVENTS,
    TraceRecorder,
)
from ..trace.events import Category, ObjectInfo, TraceError
from .keys import _encode_op, trace_fingerprint
from .store import ArtifactStore

#: Entry kind for persisted trace columns (the ``objects/trace/`` dir).
KIND_TRACE = "trace"

#: Suffix of trace data files under ``<root>/traces/``.
TRACE_DATA_SUFFIX = ".trace"


def encode_ops(ops) -> list:
    """JSON-safe rendering of a recorder's op list (order-preserving)."""
    return [_encode_op(*op) for op in ops]


def _decode_info(raw: list) -> ObjectInfo:
    obj_id, category, size, symbol, decl_index, alloc_name = raw
    return ObjectInfo(
        obj_id=obj_id,
        category=Category(category),
        size=size,
        symbol=symbol,
        decl_index=decl_index,
        alloc_name=alloc_name,
    )


def decode_ops(raw: list) -> list[tuple[int, int, object]]:
    """Inverse of :func:`encode_ops`, rebuilding payload dataclasses."""
    ops: list[tuple[int, int, object]] = []
    for position, kind, payload in raw:
        if kind == _OP_OBJECT:
            payload = _decode_info(payload)
        elif kind == _OP_ALLOC:
            info, return_addresses = payload
            payload = (_decode_info(info), tuple(return_addresses))
        ops.append((position, kind, payload))
    return ops


def trace_data_path(store: ArtifactStore, fingerprint: str) -> Path:
    """Where the column container for ``fingerprint`` lives on disk."""
    return (
        store.root
        / "traces"
        / fingerprint[:2]
        / f"{fingerprint}{TRACE_DATA_SUFFIX}"
    )


def _trace_fields(fingerprint: str) -> dict:
    return {"fingerprint": fingerprint}


def _discard(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def save_trace(store: ArtifactStore, trace: TraceRecorder) -> str:
    """Persist a sealed trace's columns + ops; returns the fingerprint.

    Idempotent: when a valid entry and data file already exist, nothing
    is written.  The data file is streamed chunk-wise from the source
    columns (in-process or attached alike) into a temp file and moved
    into place atomically, so a crashed writer never leaves a
    half-written artifact under its final name.
    """
    fingerprint = trace_fingerprint(trace)
    fields = _trace_fields(fingerprint)
    digest = store.key(KIND_TRACE, fields)
    path = trace_data_path(store, fingerprint)
    _layout, expected_bytes = plane.column_layout(trace.events)
    existing = store.get(KIND_TRACE, digest)
    if existing is not None:
        try:
            if path.stat().st_size == expected_bytes:
                return fingerprint
        except OSError:
            pass
        # Entry without a (valid) data file: fall through and rewrite.
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    storage = plane.MmapStorage(temp, trace.events, create=True)
    try:
        columns = trace.columns()
        position = 0
        for start in range(0, trace.events, DEFAULT_CHUNK_EVENTS):
            end = min(start + DEFAULT_CHUNK_EVENTS, trace.events)
            chunk = tuple(column[start:end] for column in columns)
            position += storage.write_at(position, chunk)
            trace.advise_done(start, end)
        storage.close()
        os.replace(temp, path)
    finally:
        _discard(temp)
    store.put(
        KIND_TRACE,
        digest,
        fields,
        {
            "fingerprint": fingerprint,
            "events": trace.events,
            "compute_instructions": trace.compute_instructions,
            "max_stack_depth": trace.max_stack_depth,
            "data_bytes": expected_bytes,
            "ops": encode_ops(trace.ops),
        },
    )
    obs.count("trace.save")
    obs.count("trace.save.bytes", expected_bytes)
    return fingerprint


def load_trace_by_fingerprint(
    store: ArtifactStore, fingerprint: str
) -> TraceRecorder | None:
    """Attach the persisted trace for ``fingerprint``, or ``None``.

    A missing entry is a plain miss.  A present entry whose data file is
    missing, truncated, or fails its header check is treated as
    corruption: the entry *and* the file are discarded (``store.corrupt``
    counted) so the caller re-records and rewrites — the recompute-and-
    rewrite discipline of :mod:`repro.store.store` extended to the
    binary artifact.
    """
    fields = _trace_fields(fingerprint)
    digest = store.key(KIND_TRACE, fields)
    payload = store.get(KIND_TRACE, digest)
    if not isinstance(payload, dict) or "events" not in payload:
        return None
    path = trace_data_path(store, fingerprint)
    try:
        storage = plane.MmapStorage(path, int(payload["events"]), create=False)
        ops = decode_ops(payload.get("ops", []))
    except (TraceError, ValueError, TypeError, KeyError):
        store.counters.corrupt += 1
        obs.count("store.corrupt")
        store._discard(store.entry_path(KIND_TRACE, digest))
        _discard(path)
        return None
    trace = TraceRecorder.from_storage(
        storage,
        ops=ops,
        compute_instructions=int(payload.get("compute_instructions", 0)),
        max_stack_depth=int(payload.get("max_stack_depth", 0)),
        fingerprint=fingerprint,
    )
    obs.count("trace.attach")
    return trace


def load_trace(
    store: ArtifactStore, workload: str, input_name: str
) -> TraceRecorder | None:
    """Attach the persisted trace for a (workload, input) pair, or ``None``.

    Resolves the pair to its last recorded fingerprint via the
    ``trace-meta`` entry, then attaches the columns zero-copy.
    """
    from .stages import known_fingerprint

    fingerprint = known_fingerprint(store, workload, input_name)
    if fingerprint is None:
        return None
    return load_trace_by_fingerprint(store, fingerprint)


def remember_and_save(
    store: ArtifactStore, workload: str, input_name: str, trace: TraceRecorder
) -> str:
    """Refresh the trace-meta entry and persist the columns in one step."""
    from .stages import remember_trace

    fingerprint = remember_trace(store, workload, input_name, trace)
    save_trace(store, trace)
    return fingerprint
