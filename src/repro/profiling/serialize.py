"""Profile and placement-map serialization.

The paper's framework is a *feedback* pipeline: a profiling run writes
the Name and TRG profiles to disk, and a later compile/link step reads
them back to compute the placement (Section 3).  This module provides
that boundary: JSON round-tripping for :class:`~repro.profiling.Profile`
and :class:`~repro.core.PlacementMap`, so profiles can be archived,
diffed, or produced and consumed by separate processes.  The artifact
store keeps profiles as :func:`profile_to_payload` output instead: the
same fields, with the TRG edges as int64 columns.

JSON was chosen over pickle deliberately: the files are inspectable,
diffable, and loading one cannot execute code.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from ..cache.config import CacheConfig
from ..core.placement_map import HeapDecision, PlacementMap, PlacementStats
from ..trace.events import Category
from .profile_data import Entity, Profile

#: Format version stamped into every file; bumped on breaking changes.
FORMAT_VERSION = 1


class SerializationError(Exception):
    """Raised when a profile or placement file cannot be decoded."""


# -- profiles -------------------------------------------------------------


def _profile_fields(profile: Profile, trg) -> dict:
    """A profile's encoding with ``trg`` standing for its TRG edges."""
    return {
        "format": FORMAT_VERSION,
        "kind": "ccdp-profile",
        "chunk_size": profile.chunk_size,
        "queue_threshold": profile.queue_threshold,
        "name_depth": profile.name_depth,
        "total_accesses": profile.total_accesses,
        "entities": [
            {
                "eid": e.eid,
                "category": e.category.name,
                "key": e.key,
                "size": e.size,
                "refs": e.refs,
                "first_access": e.first_access,
                "last_access": e.last_access,
                "decl_index": e.decl_index,
                "heap_name": e.heap_name,
                "alloc_count": e.alloc_count,
                "collided": e.collided,
            }
            for e in profile.entities.values()
        ],
        "trg": trg,
        "alloc_adjacency": [
            [name_a, name_b, count]
            for (name_a, name_b), count in profile.alloc_adjacency.items()
        ],
    }


def _profile_from_fields(data: dict) -> Profile:
    """A profile from its encoding, TRG edges left out; checks the envelope."""
    if data.get("kind") != "ccdp-profile":
        raise SerializationError("not a CCDP profile file")
    if data.get("format") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported profile format {data.get('format')!r}"
        )
    profile = Profile(
        chunk_size=data["chunk_size"],
        queue_threshold=data["queue_threshold"],
        name_depth=data["name_depth"],
        total_accesses=data["total_accesses"],
    )
    for raw in data["entities"]:
        entity = Entity(
            eid=raw["eid"],
            category=Category[raw["category"]],
            key=raw["key"],
            size=raw["size"],
            refs=raw["refs"],
            first_access=raw["first_access"],
            last_access=raw["last_access"],
            decl_index=raw["decl_index"],
            heap_name=raw["heap_name"],
            alloc_count=raw["alloc_count"],
            collided=raw["collided"],
        )
        profile.entities[entity.eid] = entity
    for name_a, name_b, count in data["alloc_adjacency"]:
        profile.alloc_adjacency[(name_a, name_b)] = count
    return profile


def profile_to_dict(profile: Profile) -> dict:
    """Encode a profile as JSON-compatible plain data."""
    # Edge keys are (eid, chunk) pairs; flatten for JSON.
    trg = [
        [a_eid, a_chunk, b_eid, b_chunk, weight]
        for ((a_eid, a_chunk), (b_eid, b_chunk)), weight in profile.trg.items()
    ]
    return _profile_fields(profile, trg)


def profile_from_dict(data: dict) -> Profile:
    """Decode a profile from plain data, validating the envelope."""
    profile = _profile_from_fields(data)
    for a_eid, a_chunk, b_eid, b_chunk, weight in data["trg"]:
        profile.trg[((a_eid, a_chunk), (b_eid, b_chunk))] = weight
    return profile


def profile_to_payload(profile: Profile) -> dict:
    """A profile as an artifact-store payload.

    The same fields as :func:`profile_to_dict`, but the TRG edges are
    five int64 columns (``a_eid, a_chunk, b_eid, b_chunk, weight``) in
    edge insertion order, which the store writes as array blocks.
    """
    count = len(profile.trg)
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(profile.trg)),
        np.int64,
        4 * count,
    ).reshape(count, 4)
    weights = np.fromiter(profile.trg.values(), np.int64, count)
    return _profile_fields(profile, [*np.ascontiguousarray(ends.T), weights])


def profile_from_payload(data: dict) -> Profile:
    """Decode :func:`profile_to_payload` output.

    The edge dict is rebuilt in column order, so it iterates in the same
    order as the profile that was encoded.
    """
    profile = _profile_from_fields(data)
    a_eid, a_chunk, b_eid, b_chunk, weights = (
        column.tolist() for column in data["trg"]
    )
    if not len(a_eid) == len(a_chunk) == len(b_eid) == len(b_chunk):
        raise SerializationError("TRG edge columns differ in length")
    ends = zip(zip(a_eid, a_chunk), zip(b_eid, b_chunk))
    profile.trg = dict(zip(ends, weights, strict=True))
    return profile


def save_profile(profile: Profile, path: str | Path) -> None:
    """Write a profile to ``path`` as JSON."""
    Path(path).write_text(json.dumps(profile_to_dict(profile)))


def load_profile(path: str | Path) -> Profile:
    """Read a profile previously written by :func:`save_profile`."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read profile: {exc}") from exc
    return profile_from_dict(data)


# -- placement maps ----------------------------------------------------------


def placement_to_dict(placement: PlacementMap) -> dict:
    """Encode a placement map as JSON-compatible plain data."""
    return {
        "format": FORMAT_VERSION,
        "kind": "ccdp-placement",
        "cache": {
            "size": placement.cache_config.size,
            "line_size": placement.cache_config.line_size,
            "associativity": placement.cache_config.associativity,
        },
        "data_base": placement.data_base,
        "stack_base": placement.stack_base,
        "name_depth": placement.name_depth,
        "global_offsets": dict(placement.global_offsets),
        "heap_table": [
            [name, decision.bin_tag, decision.preferred_offset]
            for name, decision in placement.heap_table.items()
        ],
        "stats": {
            "popular_entities": placement.stats.popular_entities,
            "unpopular_entities": placement.stats.unpopular_entities,
            "merges": placement.stats.merges,
            "anchors": placement.stats.anchors,
            "packed_small_globals": placement.stats.packed_small_globals,
            "heap_bins": placement.stats.heap_bins,
            "collided_heap_names": placement.stats.collided_heap_names,
            "total_conflict_cost": placement.stats.total_conflict_cost,
        },
    }


def placement_from_dict(data: dict) -> PlacementMap:
    """Decode a placement map from plain data, validating the envelope."""
    if data.get("kind") != "ccdp-placement":
        raise SerializationError("not a CCDP placement file")
    if data.get("format") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported placement format {data.get('format')!r}"
        )
    cache = data["cache"]
    placement = PlacementMap(
        cache_config=CacheConfig(
            size=cache["size"],
            line_size=cache["line_size"],
            associativity=cache["associativity"],
        ),
        stats=PlacementStats(**data["stats"]),
    )
    placement.data_base = data["data_base"]
    placement.stack_base = data["stack_base"]
    placement.name_depth = data["name_depth"]
    placement.global_offsets = dict(data["global_offsets"])
    for name, bin_tag, preferred in data["heap_table"]:
        placement.heap_table[name] = HeapDecision(
            bin_tag=bin_tag, preferred_offset=preferred
        )
    return placement


def save_placement(placement: PlacementMap, path: str | Path) -> None:
    """Write a placement map to ``path`` as canonical JSON.

    Canonical means sorted keys and a trailing newline — the same bytes
    ``repro submit --kind placement -o`` writes, so a served placement
    and a batch one diff clean when they agree.
    """
    Path(path).write_text(
        json.dumps(placement_to_dict(placement), sort_keys=True) + "\n"
    )


def load_placement(path: str | Path) -> PlacementMap:
    """Read a placement map previously written by :func:`save_placement`."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read placement: {exc}") from exc
    return placement_from_dict(data)
