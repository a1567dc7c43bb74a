"""Fingerprint-keyed memmap trace artifacts: record once, attach zero-copy.

A recorded trace is the most expensive artifact in the pipeline — it
costs a full workload run — yet the seed store only remembered its
*fingerprint* (the ``trace-meta`` entry), so every process that needed
the columns re-ran the workload.  This module persists the columns
themselves:

* The **data file** lives under ``<root>/traces/<fp[:2]>/<fp>.trace`` in
  the :mod:`repro.trace.plane` container format, written atomically
  (temp + ``os.replace``) by streaming the source columns chunk-wise.
* The **store entry** (kind ``trace``) carries the event count and the
  expected data-file byte size, keyed by the fingerprint, with the
  trace's ops document (:func:`~repro.store.keys.ops_document`, the
  bytes the fingerprint hashes) as its one ``uint8`` array block — so
  the entry's length and digest check guards the ops, and the
  byte-size + header check guards the binary file.

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
import tempfile
from pathlib import Path

import numpy as np

from ..obs import telemetry as obs
from ..trace import plane
from ..trace.buffer import DEFAULT_CHUNK_EVENTS, TraceRecorder
from ..trace.events import TraceError
from .keys import decode_ops, memoized_fingerprint, ops_document, trace_fingerprint
from .store import ArtifactStore

#: Entry kind for persisted trace columns (the ``objects/trace/`` dir).
KIND_TRACE = "trace"

#: Suffix of trace data files under ``<root>/traces/``.
TRACE_DATA_SUFFIX = ".trace"


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


def _discard(path: str | Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def save_trace(store: ArtifactStore, trace: TraceRecorder) -> str:
    """Persist a sealed trace's columns + ops; returns the fingerprint.

    Idempotent: when a valid entry and data file already exist, nothing
    is written.  The ops document is rendered once per save: it is both
    what the fingerprint hashes and the entry's one array block.  The
    data file is streamed chunk-wise from the source columns (in-process
    or attached alike) into a temp file of its own and moved into place
    atomically, so a crashed or concurrent writer never leaves a
    half-written artifact under its final name.
    """
    document = None
    fingerprint = memoized_fingerprint(trace)
    if fingerprint is None:
        document = ops_document(trace)
        fingerprint = trace_fingerprint(trace, document)
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
    if document is None:
        document = ops_document(trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    os.close(handle)
    try:
        storage = plane.MmapStorage(temp, trace.events, create=True)
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
            "data_bytes": expected_bytes,
            "ops": np.frombuffer(document, dtype=np.uint8),
        },
    )
    obs.count("trace.save")
    obs.count("trace.save.bytes", expected_bytes)
    return fingerprint


def load_trace_by_fingerprint(
    store: ArtifactStore, fingerprint: str
) -> TraceRecorder | None:
    """Attach the persisted trace for ``fingerprint``, or ``None``.

    A missing entry is a plain miss.  A corrupt entry, or one whose ops
    document does not parse or whose data file is missing, truncated,
    or fails its header check, is treated as corruption: the entry
    *and* the file are discarded (``store.corrupt`` counted) so the
    caller re-records and rewrites — the recompute-and-rewrite
    discipline of :mod:`repro.store.store` extended to the binary
    artifact.
    """
    fields = _trace_fields(fingerprint)
    digest = store.key(KIND_TRACE, fields)
    path = trace_data_path(store, fingerprint)
    payload = store.get(KIND_TRACE, digest, companions=(path,))
    if not isinstance(payload, dict) or "events" not in payload:
        return None
    try:
        document = decode_ops(bytes(payload["ops"]))
        storage = plane.MmapStorage(path, int(payload["events"]), create=False)
    except (TraceError, ValueError, TypeError, KeyError):
        store.counters.corrupt += 1
        obs.count("store.corrupt")
        store._discard(store.entry_path(KIND_TRACE, digest))
        _discard(path)
        return None
    trace = TraceRecorder.from_storage(
        storage,
        ops=document["ops"],
        compute_instructions=document["compute_instructions"],
        max_stack_depth=document["max_stack_depth"],
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
    """Persist the columns, then refresh the trace-meta entry.

    Saving first fingerprints the trace from the ops document the save
    renders, so the document is encoded once; and a trace-meta entry
    never names a fingerprint whose trace was not saved.
    """
    from .stages import remember_trace

    fingerprint = save_trace(store, trace)
    remember_trace(store, workload, input_name, trace)
    return fingerprint
