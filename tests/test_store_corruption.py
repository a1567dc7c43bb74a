"""Defensive reads: corrupt store entries degrade to recompute-and-rewrite.

A truncated file, a tampered payload, an envelope from another code
version, or an undecodable artifact must never crash a run or serve
wrong data — the store treats each as a miss, deletes the entry, and the
caller recomputes and rewrites it (mirroring how the trace layer
degrades on :class:`~repro.trace.events.TraceError`).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.profiling.batch import profile_trace
from repro.profiling.serialize import (
    SerializationError,
    profile_from_payload,
    profile_to_payload,
)
from repro.runtime.driver import measure_trace
from repro.runtime.resolvers import NaturalResolver
from repro.store import ArtifactStore, code_salt, use_store
from repro.store import traces as store_traces
from repro.store.artifacts import (
    measure_result_from_payload,
    measure_result_to_payload,
    workload_stats_from_payload,
    workload_stats_to_payload,
)
from repro.trace.buffer import record_trace


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def put_entry(store, payload=None, kind="profile", fields=None):
    fields = fields or {"trace": "abc"}
    digest = store.key(kind, fields)
    store.put(kind, digest, fields, payload or {"value": 1})
    return digest, store.entry_path(kind, digest)


class TestCorruptEntries:
    def test_roundtrip_hit(self, store):
        digest, _path = put_entry(store, {"value": 42})
        assert store.get("profile", digest) == {"value": 42}
        assert store.counters.hits == 1

    def test_truncated_payload(self, store):
        digest, path = put_entry(store)
        path.write_text(path.read_text()[:40])
        assert store.get("profile", digest) is None
        assert store.counters.corrupt == 1
        assert not path.exists(), "corrupt entry must be deleted"

    def test_empty_file(self, store):
        digest, path = put_entry(store)
        path.write_text("")
        assert store.get("profile", digest) is None
        assert store.counters.corrupt == 1

    def test_tampered_payload_fails_digest(self, store):
        digest, path = put_entry(store, {"value": 1})
        raw = path.read_bytes()
        assert raw.endswith(b'{"value":1}')
        path.write_bytes(raw[:-2] + b"2}")  # digest no longer matches
        assert store.get("profile", digest) is None
        assert store.counters.corrupt == 1
        assert not path.exists()

    def test_version_salt_mismatch(self, store, monkeypatch):
        digest, path = put_entry(store)
        monkeypatch.setenv("REPRO_CACHE_SALT", "a-newer-code-version")
        assert store.get("profile", digest) is None
        assert store.counters.corrupt == 1
        assert not path.exists(), "stale-salt entry must be evicted"

    def test_kind_mismatch(self, store):
        digest, _path = put_entry(store, kind="profile")
        target = store.entry_path("placement", digest)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store.entry_path("profile", digest).read_text())
        assert store.get("placement", digest) is None
        assert store.counters.corrupt == 1

    def test_missing_entry_is_plain_miss(self, store):
        assert store.get("profile", "0" * 64) is None
        assert store.counters.misses == 1
        assert store.counters.corrupt == 0


BLOCK_PAYLOAD = {
    "keys": np.arange(5, dtype=np.int64),
    "flags": np.array([1, 0, 1], dtype=np.int8),
}


def split_entry(path):
    """An entry's header (parsed), JSON document and block bytes."""
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    body = raw[newline + 1 :]
    return header, body[: header["document"]], body[header["document"] :]


def write_entry(path, header, document, blocks, reseal=True):
    """Write an entry back; ``reseal`` makes its length and digest match."""
    body = document + blocks
    if reseal:
        header = dict(
            header,
            length=len(body),
            document=len(document),
            sha256=hashlib.sha256(body).hexdigest(),
        )
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def assert_discarded(store, digest, path):
    assert store.get("profile", digest) is None
    assert store.counters.corrupt == 1
    assert not path.exists(), "corrupt entry must be deleted"


def _first_chunk(value):
    def tamper(columns, _profile):
        a_chunk = columns[1].copy()
        a_chunk[0] = value
        return [columns[0], a_chunk, *columns[2:]]

    return tamper


def _undeclared_entity(columns, profile):
    b_eid = columns[2].copy()
    b_eid[0] = max(profile.entities) + 1
    return [*columns[:2], b_eid, *columns[3:]]


#: Well-sealed profile entries whose TRG columns a placement must not see.
HOSTILE_TRG = {
    "negative_chunk": _first_chunk(-1),
    # The placement index packs (eid << 32) | chunk.
    "chunk_past_key_width": _first_chunk(1 << 32),
    "short_weight_column": lambda columns, _p: [*columns[:4], columns[4][:-1]],
    "four_columns": lambda columns, _p: columns[:4],
    "undeclared_entity": _undeclared_entity,
}


def _append_first_id(value):
    """Repeat the first object id with ``value`` (a dict keeps the last)."""

    def tamper(columns):
        ids, values = columns
        return [np.append(ids, ids[0]), np.append(values, value).astype(values.dtype)]

    return tamper


#: Well-sealed per-object block pairs a decoded stats entry must not keep.
HOSTILE_OBJECTS = {
    "repeated_id": lambda _columns: [np.array([7, 7]), np.array([5, 9])],
    "repeated_first_id": _append_first_id(0),
    "negative_id": lambda columns: [-1 - columns[0], columns[1]],
    "short_value_column": lambda columns: [columns[0], columns[1][:-1]],
    "one_column": lambda columns: columns[:1],
    "three_columns": lambda columns: [*columns, columns[1]],
    "document_lists": lambda columns: [column.tolist() for column in columns],
}


def _stats_entry(trace):
    """(kind, fresh value, payload, encode, decode, its counter blocks)."""
    stats = trace.stats()
    payload = workload_stats_to_payload(stats)
    return (
        "stats",
        stats,
        payload,
        workload_stats_to_payload,
        workload_stats_from_payload,
        payload,
    )


def _measure_entry(trace):
    result = measure_trace(trace, NaturalResolver())
    payload = measure_result_to_payload(result)
    return (
        "measure",
        result,
        payload,
        measure_result_to_payload,
        measure_result_from_payload,
        payload["cache"],
    )


class TestHostileEntries:
    """Entries in the header + document + array-block layout."""

    def test_block_round_trip(self, store):
        digest, _path = put_entry(store, BLOCK_PAYLOAD)
        payload = store.get("profile", digest)
        assert payload.keys() == BLOCK_PAYLOAD.keys()
        for name, array in BLOCK_PAYLOAD.items():
            assert payload[name].dtype == array.dtype
            np.testing.assert_array_equal(payload[name], array)

    def test_flipped_byte_in_block(self, store):
        digest, path = put_entry(store, BLOCK_PAYLOAD)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0x01  # inside the int64 block
        path.write_bytes(bytes(raw))
        assert_discarded(store, digest, path)

    def test_body_shorter_than_declared(self, store):
        digest, path = put_entry(store, BLOCK_PAYLOAD)
        os.truncate(path, path.stat().st_size - 3)
        assert_discarded(store, digest, path)

    def test_block_table_overruns_body(self, store):
        digest, path = put_entry(store, BLOCK_PAYLOAD)
        header, document, blocks = split_entry(path)
        header["blocks"][0][1] += 1  # one int64 more than the body holds
        write_entry(path, header, document, blocks)
        assert_discarded(store, digest, path)

    def test_block_dtype_outside_allowed_set(self, store):
        digest, path = put_entry(store, BLOCK_PAYLOAD)
        header, document, blocks = split_entry(path)
        assert header["blocks"][0][0] == "<i8"
        header["blocks"][0][0] = "|O"  # same width, but object pointers
        write_entry(path, header, document, blocks)
        assert_discarded(store, digest, path)

    def test_placeholder_names_missing_block(self, store):
        digest, path = put_entry(store, BLOCK_PAYLOAD)
        header, document, blocks = split_entry(path)
        assert b'{"$block":1}' in document
        document = document.replace(b'{"$block":1}', b'{"$block":7}')
        write_entry(path, header, document, blocks)
        assert_discarded(store, digest, path)

    @pytest.mark.parametrize("tamper", sorted(HOSTILE_TRG))
    def test_hostile_profile_columns_are_recomputed(self, store, toy_workload, tamper):
        """Decode rejects the columns, so the store recomputes the profile.

        The entry's length and digest match: only the decoder's checks
        stand between these columns and the placement index, which packs
        (entity, chunk) keys and would alias a negative chunk.
        """
        profile = profile_trace(record_trace(toy_workload, toy_workload.train_input))
        payload = profile_to_payload(profile)
        payload["trg"] = HOSTILE_TRG[tamper](payload["trg"], profile)
        fields = {"trace": "abc"}
        digest = store.key("profile", fields)
        store.put("profile", digest, fields, payload)
        with pytest.raises(SerializationError):
            profile_from_payload(store.get("profile", digest))
        loaded = store.get_or_compute(
            "profile",
            fields,
            encode=profile_to_payload,
            decode=profile_from_payload,
            compute=lambda: profile,
        )
        assert loaded is profile
        assert store.counters.corrupt == 1
        rewritten = profile_from_payload(store.get("profile", digest))
        assert list(rewritten.trg.items()) == list(profile.trg.items())

    @pytest.mark.parametrize("tamper", sorted(HOSTILE_OBJECTS))
    @pytest.mark.parametrize(
        "entry, field",
        [
            (_stats_entry, "refs_by_object"),
            (_stats_entry, "object_sizes"),
            (_measure_entry, "misses_by_object"),
        ],
    )
    def test_hostile_object_blocks_are_recomputed(
        self, store, toy_workload, entry, field, tamper
    ):
        """Decode rejects the blocks, so the store recomputes the entry.

        A dict built from a repeated id keeps its last value, and one
        with a negative id names no object, yet both would be served.
        """
        trace = record_trace(toy_workload, toy_workload.test_input)
        kind, fresh, payload, encode, decode, blocks = entry(trace)
        blocks[field] = HOSTILE_OBJECTS[tamper](blocks[field])
        fields = {"trace": "abc"}
        digest = store.key(kind, fields)
        store.put(kind, digest, fields, payload)
        with pytest.raises(SerializationError):
            decode(store.get(kind, digest))
        loaded = store.get_or_compute(
            kind, fields, encode=encode, decode=decode, compute=lambda: fresh
        )
        assert loaded is fresh
        assert store.counters.corrupt == 1
        assert decode(store.get(kind, digest)) == fresh

    @pytest.mark.parametrize("category", [-1, 4])
    def test_category_block_naming_no_category(self, store, toy_workload, category):
        stats = record_trace(toy_workload, toy_workload.test_input).stats()
        payload = workload_stats_to_payload(stats)
        ids, values = payload["object_categories"]
        payload["object_categories"] = [ids, np.append(values[1:], category)]
        with pytest.raises(SerializationError):
            workload_stats_from_payload(payload)

    def test_measure_trace_recomputes_a_repeated_id(self, tmp_path):
        """A warm ``measure_trace`` recomputes instead of failing its check.

        The dict of the tampered entry keeps the repeat's value, so its
        per-object misses no longer sum to the total.
        """
        from repro.experiments.common import cached_trace
        from repro.workloads import make_workload

        trace = cached_trace("go", make_workload("go").test_input)
        cold_store = ArtifactStore(tmp_path / "store")
        with use_store(cold_store):
            fresh = measure_trace(trace, NaturalResolver())
        (path,) = (cold_store.objects_dir / "measure").rglob("*.json")
        header, _document, _blocks = split_entry(path)
        payload = cold_store.get("measure", path.stem)
        cache = payload["cache"]
        cache["misses_by_object"] = _append_first_id(1)(cache["misses_by_object"])
        cold_store.put("measure", path.stem, header["fields"], payload)
        warm_store = ArtifactStore(tmp_path / "store")
        with use_store(warm_store):
            warm = measure_trace(trace, NaturalResolver())
        assert warm == fresh
        assert warm_store.counters.corrupt == 1
        assert warm_store.counters.writes == 1

    @pytest.mark.parametrize("trailer", [b"", b"\n"])
    def test_format_one_entry(self, store, trailer):
        digest, path = put_entry(store)
        header, _document, _blocks = split_entry(path)
        payload = {"value": 1}
        envelope = {
            "format": 1,
            "kind": "profile",
            "salt": code_salt(),
            "fields": header["fields"],
            "payload_sha256": hashlib.sha256(
                json.dumps(payload, separators=(",", ":")).encode()
            ).hexdigest(),
            "payload": payload,
        }
        path.write_bytes(json.dumps(envelope).encode() + trailer)
        assert_discarded(store, digest, path)

    def test_flipped_byte_in_trace_ops_document(self, store, toy_workload):
        trace = record_trace(toy_workload, toy_workload.train_input)
        fingerprint = store_traces.save_trace(store, trace)
        entry = store.entry_path(
            store_traces.KIND_TRACE,
            store.key(store_traces.KIND_TRACE, {"fingerprint": fingerprint}),
        )
        data = store_traces.trace_data_path(store, fingerprint)
        header, document, ops = split_entry(entry)
        assert header["blocks"] == [["|u1", len(ops)]]
        ops = bytearray(ops)
        ops[len(ops) // 2] ^= 0x01
        write_entry(entry, header, document, bytes(ops), reseal=False)
        assert store_traces.load_trace_by_fingerprint(store, fingerprint) is None
        assert store.counters.corrupt == 1
        assert not entry.exists()
        assert not data.exists()


class TestConcurrentWriters:
    """Two writers of one entry in one process never share a temp file.

    ``repro serve`` writes one tenant store from its event loop (uploads)
    and its dispatcher (jobs).  Each test runs a second write of the same
    entry between the first writer's temp write and its rename.
    """

    @staticmethod
    def nest_once(monkeypatch, second_write, on=lambda dst: True):
        real_replace = os.replace
        nested = []

        def replace(src, dst):
            if not nested and on(os.fspath(dst)):
                nested.append(dst)
                second_write()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        return nested

    def test_nested_put_of_the_same_entry(self, store, monkeypatch):
        fields = {"trace": "abc"}
        digest = store.key("profile", fields)
        nested = self.nest_once(
            monkeypatch,
            lambda: store.put("profile", digest, fields, {"value": 2}),
        )
        store.put("profile", digest, fields, {"value": 1})
        assert nested
        assert store.get("profile", digest) == {"value": 1}
        assert store.counters.writes == 2

    def test_nested_save_trace_of_the_same_trace(
        self, store, toy_workload, monkeypatch
    ):
        trace = record_trace(toy_workload, toy_workload.train_input)
        nested = self.nest_once(
            monkeypatch,
            lambda: store_traces.save_trace(store, trace),
            on=lambda dst: dst.endswith(store_traces.TRACE_DATA_SUFFIX),
        )
        fingerprint = store_traces.save_trace(store, trace)
        assert nested
        loaded = store_traces.load_trace_by_fingerprint(store, fingerprint)
        assert loaded is not None
        try:
            for left, right in zip(loaded.columns(), trace.columns()):
                np.testing.assert_array_equal(left, right)
            assert loaded.ops == trace.ops
        finally:
            loaded.close()
        leftovers = [
            path.name
            for path in store.root.rglob("*")
            if path.name.endswith(".tmp")
        ]
        assert leftovers == []


class TestRecomputeAndRewrite:
    def test_get_or_compute_recovers(self, store):
        fields = {"trace": "abc"}
        calls = []

        def compute():
            calls.append(1)
            return {"value": 7}

        identity = dict
        first = store.get_or_compute(
            "profile", fields, encode=identity, decode=identity, compute=compute
        )
        # Corrupt the freshly written entry in place.
        path = store.entry_path("profile", store.key("profile", fields))
        path.write_text(path.read_text()[:25])
        second = store.get_or_compute(
            "profile", fields, encode=identity, decode=identity, compute=compute
        )
        assert first == second == {"value": 7}
        assert len(calls) == 2, "corruption must trigger recompute"
        assert path.exists(), "recompute must rewrite the entry"
        # Third call: the rewritten entry serves a clean hit.
        third = store.get_or_compute(
            "profile", fields, encode=identity, decode=identity, compute=compute
        )
        assert third == {"value": 7}
        assert len(calls) == 2

    def test_decode_failure_treated_as_corruption(self, store):
        fields = {"trace": "abc"}

        def bad_decode(payload):
            raise ValueError("schema drift")

        store.put("profile", store.key("profile", fields), fields, {"v": 1})
        value = store.get_or_compute(
            "profile",
            fields,
            encode=dict,
            decode=bad_decode,
            compute=lambda: {"v": 2},
        )
        assert value == {"v": 2}
        assert store.counters.corrupt == 1

    def test_pipeline_recovers_from_truncation(
        self, tmp_path, toy_workload, small_cache
    ):
        """End-to-end: a truncated placement entry heals on the next run."""
        from repro.profiling.serialize import placement_to_dict
        from repro.runtime.driver import build_placement
        from repro.trace.buffer import record_trace

        root = tmp_path / "store"
        trace = record_trace(toy_workload, toy_workload.train_input)
        with use_store(ArtifactStore(root)):
            _, placement_cold = build_placement(
                toy_workload, cache_config=small_cache, trace=trace
            )
        for path in (root / "objects" / "placement").rglob("*.json"):
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        rerun = ArtifactStore(root)
        with use_store(rerun):
            _, placement_warm = build_placement(
                toy_workload, cache_config=small_cache, trace=trace
            )
        assert rerun.counters.corrupt >= 1
        assert rerun.counters.writes >= 1, "entry must be rewritten"
        assert placement_to_dict(placement_warm) == placement_to_dict(
            placement_cold
        )


class TestGcAndClear:
    def test_gc_removes_stale_salt(self, store, monkeypatch):
        put_entry(store, fields={"trace": "a"})
        monkeypatch.setenv("REPRO_CACHE_SALT", "next-version")
        removed, removed_bytes = store.gc()
        assert removed == 1
        assert removed_bytes > 0
        assert store.stats().entries == 0

    def test_gc_max_bytes_keeps_newest(self, store):
        import os
        import time

        first, first_path = put_entry(store, fields={"trace": "a"})
        second, second_path = put_entry(store, fields={"trace": "b"})
        old = time.time() - 1000
        os.utime(first_path, (old, old))
        size = second_path.stat().st_size
        removed, _bytes = store.gc(max_bytes=size)
        assert removed == 1
        assert not first_path.exists()
        assert second_path.exists()

    def test_gc_max_age(self, store):
        import os
        import time

        _digest, path = put_entry(store)
        old = time.time() - 10 * 86400
        os.utime(path, (old, old))
        removed, _bytes = store.gc(max_age_days=5)
        assert removed == 1

    def test_clear(self, store):
        put_entry(store, fields={"trace": "a"})
        put_entry(store, fields={"trace": "b"})
        assert store.clear() == 2
        assert store.stats().entries == 0
