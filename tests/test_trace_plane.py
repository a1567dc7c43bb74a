"""The zero-copy trace plane: backends, spill, handles, trace artifacts.

Everything here is parametrized over the three column-storage backends
where it can be: the heap path is the seed's behavior, and shm/mmap must
be observationally identical to it (bit-identical columns, resolution,
and statistics) while staying attachable and leak-free.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.runtime.resolvers import NaturalResolver
from repro.store import ArtifactStore
from repro.store import traces as store_traces
from repro.store.keys import trace_fingerprint
from repro.trace import plane
from repro.trace.buffer import (
    _OP_FREE,
    DEFAULT_CHUNK_EVENTS,
    TraceRecorder,
    record_trace,
)
from repro.trace.events import TraceError

BACKENDS = ("heap", "shm", "mmap")

#: A spill chunk far smaller than any recorded toy trace, so shm/mmap
#: recordings exercise the spill-while-recording path in every test.
TINY_SPILL = 512


def _record(workload, backend: str, tmp_path, spill=TINY_SPILL):
    return record_trace(
        workload,
        "train",
        storage=backend,
        spill_chunk_events=spill,
        spill_dir=tmp_path,
    )


def _synthetic_columns(events: int) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(17)
    return (
        rng.integers(0, 50, events, dtype=np.int32),
        rng.integers(0, 4096, events, dtype=np.int64),
        rng.integers(1, 9, events, dtype=np.int32),
        rng.integers(0, 4, events, dtype=np.int8),
        rng.integers(0, 2, events, dtype=np.int8),
    )


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
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_write_read_round_trip(self, backend, tmp_path):
        columns = _synthetic_columns(777)
        storage = plane.create_storage(backend, 777, directory=tmp_path)
        try:
            # Two unequal writes spanning an odd boundary.
            storage.write_at(0, tuple(c[:500] for c in columns))
            storage.write_at(500, tuple(c[500:] for c in columns))
            storage.seal()
            for written, expected in zip(storage.columns(), columns):
                np.testing.assert_array_equal(written, expected)
        finally:
            storage.close()

    @pytest.mark.parametrize("backend", ("shm", "mmap"))
    def test_attach_sees_creator_data_and_never_unlinks(self, backend, tmp_path):
        columns = _synthetic_columns(64)
        storage = plane.create_storage(backend, 64, directory=tmp_path)
        storage.write_at(0, columns)
        storage.seal()
        attached = plane.open_storage(backend, storage.ref, 64)
        np.testing.assert_array_equal(attached.columns()[1], columns[1])
        attached.close()
        # The attachment's close must not have torn down the backing.
        again = plane.open_storage(backend, storage.ref, 64)
        np.testing.assert_array_equal(again.columns()[0], columns[0])
        again.close()
        storage.close()

    @pytest.mark.parametrize("backend", ("shm", "mmap"))
    def test_owner_close_releases_the_backing(self, backend, tmp_path):
        storage = plane.create_storage(backend, 8, directory=tmp_path)
        storage.write_at(0, _synthetic_columns(8))
        storage.seal()
        ref = storage.ref
        storage.close()
        with pytest.raises(TraceError):
            plane.open_storage(backend, ref, 8)

    def test_attach_with_wrong_event_count_is_rejected(self, tmp_path):
        storage = plane.create_storage("mmap", 32, directory=tmp_path)
        storage.write_at(0, _synthetic_columns(32))
        storage.seal()
        try:
            with pytest.raises(TraceError):
                plane.open_storage("mmap", storage.ref, 31)
        finally:
            storage.close()

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="disk"):
            plane.create_storage("disk", 1)
        with pytest.raises(ValueError):
            plane.open_storage("heap", "", 1)


class TestSpillFormat:
    def test_chunks_round_trip(self, tmp_path):
        path = tmp_path / "round.spill"
        columns = _synthetic_columns(1000)
        writer = plane.SpillWriter(path)
        writer.write_chunk(tuple(c[:600] for c in columns))
        writer.write_chunk(tuple(c[600:] for c in columns))
        writer.close()
        chunks = list(plane.iter_spill_chunks(path))
        assert [len(chunk[0]) for chunk in chunks] == [600, 400]
        rebuilt = np.concatenate([chunk[1] for chunk in chunks])
        np.testing.assert_array_equal(rebuilt, columns[1])

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.spill"
        plane.SpillWriter(path).close()
        assert list(plane.iter_spill_chunks(path)) == []

    @pytest.mark.parametrize("clip", (3, 20, 200))
    def test_truncation_raises_mid_chunk(self, tmp_path, clip):
        path = tmp_path / "short.spill"
        writer = plane.SpillWriter(path)
        writer.write_chunk(_synthetic_columns(100))
        writer.close()
        os.truncate(path, os.path.getsize(path) - clip)
        with pytest.raises(TraceError, match="mid-chunk"):
            list(plane.iter_spill_chunks(path))


class TestBackendParity:
    """shm/mmap recordings must be bit-identical to the heap path."""

    @pytest.mark.parametrize("backend", ("shm", "mmap"))
    def test_columns_resolution_and_stats_match_heap(
        self, backend, toy_workload, tmp_path
    ):
        heap = record_trace(toy_workload, "train")
        other = _record(toy_workload, backend, tmp_path)
        try:
            assert other.events == heap.events
            assert other.ops == heap.ops
            for left, right in zip(other.columns(), heap.columns()):
                np.testing.assert_array_equal(left, right)
            np.testing.assert_array_equal(
                other.resolve(NaturalResolver()), heap.resolve(NaturalResolver())
            )
            assert other.stats() == heap.stats()
            assert trace_fingerprint(other) == trace_fingerprint(heap)
        finally:
            other.close()

    @pytest.mark.parametrize("backend", ("shm", "mmap"))
    def test_spill_chunk_size_does_not_change_the_trace(
        self, backend, toy_workload, tmp_path
    ):
        small = _record(toy_workload, backend, tmp_path, spill=97)
        large = _record(toy_workload, backend, tmp_path, spill=1 << 20)
        try:
            for left, right in zip(small.columns(), large.columns()):
                np.testing.assert_array_equal(left, right)
        finally:
            small.close()
            large.close()


class TestChunkBoundaries:
    """Chunked consumption at awkward event counts, on every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_events", (1, 7, 64, DEFAULT_CHUNK_EVENTS))
    def test_iter_resolved_covers_non_multiple_streams(
        self, backend, chunk_events, toy_workload, tmp_path
    ):
        trace = _record(toy_workload, backend, tmp_path)
        try:
            assert trace.events % chunk_events != 0 or chunk_events == 1
            reference = trace.resolve(NaturalResolver())
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
        finally:
            trace.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_trace(self, backend, tmp_path):
        recorder = TraceRecorder(
            storage=backend, spill_chunk_events=TINY_SPILL, spill_dir=tmp_path
        )
        recorder.on_end()
        try:
            assert recorder.events == 0
            assert all(len(c) == 0 for c in recorder.columns())
            assert list(recorder.iter_resolved(NaturalResolver())) == []
            assert len(recorder.resolve(NaturalResolver())) == 0
        finally:
            recorder.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_event_trace(self, backend, tmp_path):
        from repro.trace.events import Category, ObjectInfo

        recorder = TraceRecorder(
            storage=backend, spill_chunk_events=TINY_SPILL, spill_dir=tmp_path
        )
        info = ObjectInfo(
            obj_id=1, category=Category.GLOBAL, size=64, symbol="g", decl_index=0
        )
        recorder.on_object(info)
        recorder.on_access(1, 8, 4, 0, int(Category.GLOBAL))
        recorder.on_end()
        try:
            assert recorder.events == 1
            chunks = list(recorder.iter_resolved(NaturalResolver()))
            assert len(chunks) == 1
            start, end, addresses = chunks[0]
            assert (start, end) == (0, 1)
            assert len(addresses) == 1
        finally:
            recorder.close()

    @pytest.mark.parametrize("backend", ("shm", "mmap"))
    def test_exact_spill_multiple_has_no_ragged_tail(
        self, backend, tmp_path
    ):
        from repro.trace.events import Category, ObjectInfo

        recorder = TraceRecorder(
            storage=backend, spill_chunk_events=8, spill_dir=tmp_path
        )
        info = ObjectInfo(
            obj_id=1, category=Category.GLOBAL, size=4096, symbol="g", decl_index=0
        )
        recorder.on_object(info)
        for index in range(32):  # exactly 4 spill chunks, empty staging tail
            recorder.on_access(1, index * 4, 4, 0, int(Category.GLOBAL))
        recorder.on_end()
        try:
            assert recorder.events == 32
            np.testing.assert_array_equal(
                recorder.columns()[1], np.arange(32, dtype=np.int64) * 4
            )
        finally:
            recorder.close()


class TestHandles:
    @pytest.mark.parametrize("backend", ("shm", "mmap"))
    def test_pickle_round_trip_and_attach(self, backend, toy_workload, tmp_path):
        trace = _record(toy_workload, backend, tmp_path)
        try:
            handle = trace.handle()
            # The whole point: the handle is small — columns never cross
            # the process boundary (toy trace columns are ~100KB).
            assert len(pickle.dumps(handle)) < 20_000
            revived = pickle.loads(pickle.dumps(handle))
            attached = TraceRecorder.attach(revived)
            assert attached.events == trace.events
            for left, right in zip(attached.columns(), trace.columns()):
                np.testing.assert_array_equal(left, right)
            attached.close()
            # An attachment's close leaves the creator's storage alive.
            assert trace.events == len(trace.columns()[0])
        finally:
            trace.close()

    def test_heap_traces_are_not_attachable(self, toy_workload):
        trace = record_trace(toy_workload, "train")
        with pytest.raises(TraceError, match="not attachable"):
            trace.handle()


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
        assert loaded.backend == "mmap"
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


class TestScaleBench:
    """The amplifier and arm grid behind ``repro bench --trace-scale``."""

    def test_default_arms_grid(self):
        from repro.runtime.scale import default_arms

        assert default_arms((1, 10)) == [
            ("heap", 1),
            ("shm", 1),
            ("mmap", 1),
            ("mmap", 10),
        ]
        assert default_arms((1, 2), ("heap", "mmap")) == [
            ("heap", 1),
            ("heap", 2),
            ("mmap", 1),
            ("mmap", 2),
        ]

    def test_amplifier_tiles_columns_and_resolves_periodically(
        self, toy_workload, tmp_path
    ):
        from repro.runtime.scale import amplify_trace

        base = record_trace(toy_workload, "train")
        amplified = amplify_trace(base, 3, "mmap", directory=tmp_path)
        try:
            events = base.events
            assert amplified.events == events * 3
            # Declarations and allocations keep their positions; the frees
            # move to the end, so every copy touches only live objects.
            frees = [op for op in base.ops if op[1] == _OP_FREE]
            assert frees
            assert amplified.ops == [
                op for op in base.ops if op[1] != _OP_FREE
            ] + [(events * 3, kind, obj_id) for _p, kind, obj_id in frees]
            assert (
                amplified.compute_instructions == base.compute_instructions * 3
            )
            base_obj = base.columns()[0]
            amp_obj = amplified.columns()[0]
            for copy in range(3):
                np.testing.assert_array_equal(
                    amp_obj[copy * events : (copy + 1) * events], base_obj
                )
            # Every copy resolves to the same addresses as the first: the
            # lifetime ops replay once and no object dies before the end.
            resolved = amplified.resolve(NaturalResolver())
            for copy in range(1, 3):
                np.testing.assert_array_equal(
                    resolved[copy * events : (copy + 1) * events],
                    resolved[:events],
                )
        finally:
            amplified.close()

    def test_scale_rejects_nonpositive_factors(self):
        from repro.runtime.scale import run_scale_bench

        with pytest.raises(ValueError, match=">= 1"):
            run_scale_bench(quick=True, scales=(0,), output=None)
