"""Tests for profile / placement-map JSON serialization."""

from __future__ import annotations

import json

import pytest

from repro.core.algorithm import CCDPPlacer
from repro.profiling.serialize import (
    SerializationError,
    load_placement,
    load_profile,
    placement_from_dict,
    placement_to_dict,
    profile_from_dict,
    profile_to_dict,
    save_placement,
    save_profile,
)
from repro.runtime.driver import measure, profile_workload
from repro.runtime.resolvers import CCDPResolver


@pytest.fixture
def profile(toy_workload, small_cache):
    return profile_workload(toy_workload, toy_workload.train_input, small_cache)


class TestProfileRoundTrip:
    def test_entities_survive(self, profile):
        restored = profile_from_dict(profile_to_dict(profile))
        assert set(restored.entities) == set(profile.entities)
        for eid, entity in profile.entities.items():
            other = restored.entities[eid]
            assert (entity.key, entity.size, entity.refs, entity.collided) == (
                other.key, other.size, other.refs, other.collided
            )

    def test_trg_survives(self, profile):
        restored = profile_from_dict(profile_to_dict(profile))
        assert restored.trg == profile.trg

    def test_metadata_survives(self, profile):
        restored = profile_from_dict(profile_to_dict(profile))
        assert restored.chunk_size == profile.chunk_size
        assert restored.queue_threshold == profile.queue_threshold
        assert restored.name_depth == profile.name_depth
        assert restored.total_accesses == profile.total_accesses
        assert restored.alloc_adjacency == profile.alloc_adjacency

    def test_file_round_trip(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        restored = load_profile(path)
        assert restored.trg == profile.trg

    def test_wrong_kind_rejected(self, profile):
        data = profile_to_dict(profile)
        data["kind"] = "something-else"
        with pytest.raises(SerializationError):
            profile_from_dict(data)

    def test_wrong_version_rejected(self, profile):
        data = profile_to_dict(profile)
        data["format"] = 999
        with pytest.raises(SerializationError):
            profile_from_dict(data)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_profile(path)

    def test_output_is_plain_json(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        json.loads(path.read_text())  # must parse as standard JSON

    def test_trg_loads_as_columns_in_row_order(self, profile):
        data = json.loads(json.dumps(profile_to_dict(profile)))
        restored = profile_from_dict(data)
        rows = [list(row) for row in zip(*restored.trg_columns)]
        assert rows == data["trg"]

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda rows: rows[0].__setitem__(1, -1), "chunk out of range"),
            (lambda rows: rows[0].__setitem__(3, 2**32), "chunk out of range"),
            (lambda rows: rows[0].__setitem__(0, 10**6), "undeclared entity"),
            (lambda rows: rows.append(list(rows[0])), "repeats an edge"),
            (lambda rows: rows.__setitem__(0, rows[0][:4]), "differ in length"),
        ],
        ids=["negative-chunk", "chunk-2**32", "undeclared", "repeated", "four-field"],
    )
    def test_corrupt_trg_row_rejected(self, profile, corrupt, message):
        data = json.loads(json.dumps(profile_to_dict(profile)))
        corrupt(data["trg"])
        with pytest.raises(SerializationError, match=message):
            profile_from_dict(data)

    def test_edge_repeated_in_reverse_rejected(self, profile):
        data = json.loads(json.dumps(profile_to_dict(profile)))
        a_eid, a_chunk, b_eid, b_chunk, _weight = data["trg"][0]
        data["trg"].append([b_eid, b_chunk, a_eid, a_chunk, 1])
        with pytest.raises(SerializationError, match="repeats an edge"):
            profile_from_dict(data)


class TestPlacementRoundTrip:
    @pytest.fixture
    def placement(self, profile, small_cache):
        return CCDPPlacer(profile, small_cache).place()

    def test_layout_survives(self, placement):
        restored = placement_from_dict(placement_to_dict(placement))
        assert restored.global_offsets == placement.global_offsets
        assert restored.data_base == placement.data_base
        assert restored.stack_base == placement.stack_base
        assert restored.heap_table == placement.heap_table
        assert restored.cache_config == placement.cache_config

    def test_stats_survive(self, placement):
        restored = placement_from_dict(placement_to_dict(placement))
        assert restored.stats == placement.stats

    def test_file_round_trip_drives_identical_simulation(
        self, placement, toy_workload, small_cache, tmp_path
    ):
        path = tmp_path / "placement.json"
        save_placement(placement, path)
        restored = load_placement(path)
        direct = measure(
            toy_workload, toy_workload.test_input,
            CCDPResolver(placement), small_cache,
        )
        via_file = measure(
            toy_workload, toy_workload.test_input,
            CCDPResolver(restored), small_cache,
        )
        assert direct.cache.miss_rate == via_file.cache.miss_rate

    def test_wrong_kind_rejected(self, placement):
        data = placement_to_dict(placement)
        data["kind"] = "ccdp-profile"
        with pytest.raises(SerializationError):
            placement_from_dict(data)
