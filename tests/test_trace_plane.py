"""The trace column container: layout, mmap attach, trace artifacts.

A trace is either recorded into in-process columns or attached from one
memory-mapped file (a store artifact or a spooled serve upload).  The
chunked-consumption tests run over both forms of the same recording:
the attached copy must stream bit-identically, chunk by chunk, with
``advise_done`` dropping the pages behind it.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.runtime.resolvers import NaturalResolver
from repro.store import ArtifactStore
from repro.store import traces as store_traces
from repro.trace import plane
from repro.trace.buffer import DEFAULT_CHUNK_EVENTS, TraceRecorder, record_trace
from repro.trace.events import Category, ObjectInfo, TraceError

#: ``heap`` is the in-process recording, ``mmap`` its store-attached copy.
FORMS = ("heap", "mmap")


def _synthetic_columns(events: int) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(17)
    return (
        rng.integers(0, 50, events, dtype=np.int32),
        rng.integers(0, 4096, events, dtype=np.int64),
        rng.integers(1, 9, events, dtype=np.int32),
        rng.integers(0, 4, events, dtype=np.int8),
        rng.integers(0, 2, events, dtype=np.int8),
    )


def _written(path, columns) -> None:
    storage = plane.MmapStorage(path, len(columns[0]), create=True)
    storage.write_at(0, columns)
    storage.close()


@pytest.fixture
def in_form(tmp_path):
    """Return a finished recording as itself or as its store-attached copy."""
    store = ArtifactStore(tmp_path / "store")
    attached: list[TraceRecorder] = []

    def convert(recorder: TraceRecorder, form: str) -> TraceRecorder:
        if form == "heap":
            return recorder
        fingerprint = store_traces.save_trace(store, recorder)
        loaded = store_traces.load_trace_by_fingerprint(store, fingerprint)
        assert loaded is not None
        attached.append(loaded)
        return loaded

    yield convert
    for trace in attached:
        trace.close()


class TestColumnLayout:
    def test_blocks_are_eight_byte_aligned(self):
        offsets, total = plane.column_layout(1001, plane.TRACE_COLUMN_DTYPES)
        assert offsets[0] == plane.HEADER_BYTES
        for offset in offsets:
            assert offset % 8 == 0
        assert total >= plane.HEADER_BYTES + 1001 * 18

    def test_header_round_trip_and_mismatches(self):
        raw = plane.pack_header(42)
        plane.check_header(raw, 42, "test")
        with pytest.raises(TraceError, match="42"):
            plane.check_header(raw, 43, "test")
        with pytest.raises(TraceError):
            plane.check_header(b"XXXX" + raw[4:], 42, "test")


class TestStorageContainers:
    def test_write_read_round_trip(self, tmp_path):
        columns = _synthetic_columns(777)
        storage = plane.MmapStorage(tmp_path / "round.trace", 777, create=True)
        # Two unequal writes spanning an odd boundary.
        storage.write_at(0, tuple(c[:500] for c in columns))
        storage.write_at(500, tuple(c[500:] for c in columns))
        storage.close()
        attached = plane.MmapStorage(tmp_path / "round.trace", 777, create=False)
        try:
            for written, expected in zip(attached.columns(), columns):
                np.testing.assert_array_equal(written, expected)
        finally:
            attached.close()

    def test_close_keeps_the_file_for_the_next_attach(self, tmp_path):
        path = tmp_path / "kept.trace"
        columns = _synthetic_columns(64)
        _written(path, columns)
        attached = plane.MmapStorage(path, 64, create=False)
        np.testing.assert_array_equal(attached.columns()[1], columns[1])
        attached.close()
        again = plane.MmapStorage(path, 64, create=False)
        np.testing.assert_array_equal(again.columns()[0], columns[0])
        again.close()
        assert path.is_file()

    def test_a_closed_trace_refuses_reads(self, tmp_path, toy_workload):
        store = ArtifactStore(tmp_path / "store")
        fingerprint = store_traces.save_trace(
            store, record_trace(toy_workload, "train")
        )
        trace = store_traces.load_trace_by_fingerprint(store, fingerprint)
        trace.close()
        with pytest.raises(TraceError, match="closed"):
            trace.columns()

    def test_attach_with_wrong_event_count_is_rejected(self, tmp_path):
        path = tmp_path / "count.trace"
        _written(path, _synthetic_columns(32))
        with pytest.raises(TraceError):
            plane.MmapStorage(path, 31, create=False)

    def test_missing_file_is_not_attachable(self, tmp_path):
        with pytest.raises(TraceError, match="not attachable"):
            plane.MmapStorage(tmp_path / "absent.trace", 8, create=False)


class TestChunkBoundaries:
    """Chunked consumption at awkward event counts, recorded and attached."""

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("chunk_events", (1, 7, 64, DEFAULT_CHUNK_EVENTS))
    def test_iter_resolved_covers_non_multiple_streams(
        self, form, chunk_events, toy_workload, in_form
    ):
        recorded = record_trace(toy_workload, "train")
        reference = recorded.resolve(NaturalResolver())
        trace = in_form(recorded, form)
        assert trace.events % chunk_events != 0 or chunk_events == 1
        spans = []
        pieces = []
        for start, end, addresses in trace.iter_resolved(
            NaturalResolver(), chunk_events=chunk_events
        ):
            assert end - start <= chunk_events
            spans.append((start, end))
            pieces.append(addresses.copy())
            trace.advise_done(start, end)
        assert spans[0][0] == 0
        assert spans[-1][1] == trace.events
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        np.testing.assert_array_equal(np.concatenate(pieces), reference)

    @pytest.mark.parametrize("form", FORMS)
    def test_empty_trace(self, form, in_form):
        recorder = TraceRecorder()
        recorder.on_end()
        trace = in_form(recorder, form)
        assert trace.events == 0
        assert all(len(c) == 0 for c in trace.columns())
        assert list(trace.iter_resolved(NaturalResolver())) == []
        assert len(trace.resolve(NaturalResolver())) == 0

    @pytest.mark.parametrize("form", FORMS)
    def test_single_event_trace(self, form, in_form):
        recorder = TraceRecorder()
        info = ObjectInfo(
            obj_id=1, category=Category.GLOBAL, size=64, symbol="g", decl_index=0
        )
        recorder.on_object(info)
        recorder.on_access(1, 8, 4, 0, int(Category.GLOBAL))
        recorder.on_end()
        trace = in_form(recorder, form)
        assert trace.events == 1
        chunks = list(trace.iter_resolved(NaturalResolver()))
        assert len(chunks) == 1
        start, end, addresses = chunks[0]
        assert (start, end) == (0, 1)
        assert len(addresses) == 1


class TestTraceArtifacts:
    """Fingerprint-keyed memmap trace artifacts in the content store."""

    @pytest.fixture
    def store(self, tmp_path):
        return ArtifactStore(tmp_path / "store")

    def _saved(self, store, toy_workload):
        trace = record_trace(toy_workload, "train")
        fingerprint = store_traces.remember_and_save(
            store, toy_workload.name, "train", trace
        )
        return trace, fingerprint

    def test_save_attach_round_trip(self, store, toy_workload):
        trace, fingerprint = self._saved(store, toy_workload)
        path = store_traces.trace_data_path(store, fingerprint)
        assert path.is_file()
        loaded = store_traces.load_trace(store, toy_workload.name, "train")
        assert loaded is not None
        for left, right in zip(loaded.columns(), trace.columns()):
            np.testing.assert_array_equal(left, right)
        np.testing.assert_array_equal(
            loaded.resolve(NaturalResolver()), trace.resolve(NaturalResolver())
        )
        loaded.close()
        assert path.is_file()  # attachments never unlink the artifact

    def test_save_is_idempotent(self, store, toy_workload):
        _trace, fingerprint = self._saved(store, toy_workload)
        path = store_traces.trace_data_path(store, fingerprint)
        before = path.stat().st_mtime_ns
        self._saved(store, toy_workload)
        assert path.stat().st_mtime_ns == before

    def test_truncated_artifact_self_heals(self, store, toy_workload):
        _trace, fingerprint = self._saved(store, toy_workload)
        path = store_traces.trace_data_path(store, fingerprint)
        os.truncate(path, path.stat().st_size // 2)
        corrupt_before = store.counters.corrupt
        assert store_traces.load_trace_by_fingerprint(store, fingerprint) is None
        assert store.counters.corrupt == corrupt_before + 1
        assert not path.exists()  # discarded alongside its entry
        # The caller's recompute-and-rewrite path restores the artifact.
        trace, again = self._saved(store, toy_workload)
        assert again == fingerprint
        loaded = store_traces.load_trace_by_fingerprint(store, fingerprint)
        np.testing.assert_array_equal(
            loaded.resolve(NaturalResolver()), trace.resolve(NaturalResolver())
        )
        loaded.close()

    def test_stats_count_trace_data_bytes(self, store, toy_workload):
        _trace, fingerprint = self._saved(store, toy_workload)
        path = store_traces.trace_data_path(store, fingerprint)
        summary = store.stats()
        assert summary.trace_files == 1
        assert summary.trace_bytes == path.stat().st_size
        assert summary.bytes_by_kind["trace-data"] == summary.trace_bytes
        assert summary.bytes_by_kind["trace"] > 0

    def test_gc_removes_orphaned_trace_files(self, store, toy_workload):
        _trace, fingerprint = self._saved(store, toy_workload)
        orphan = store_traces.trace_data_path(store, "ff" + "0" * 62)
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"x" * 128)
        removed, bytes_removed = store.gc()
        assert removed >= 1
        assert bytes_removed >= 128
        assert not orphan.exists()
        # The referenced artifact survives.
        assert store_traces.trace_data_path(store, fingerprint).exists()

    def test_clear_removes_trace_files(self, store, toy_workload):
        _trace, fingerprint = self._saved(store, toy_workload)
        store.clear()
        assert not store_traces.trace_data_path(store, fingerprint).exists()
        assert store.stats().trace_files == 0
