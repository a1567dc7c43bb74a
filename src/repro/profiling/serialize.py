"""Profile and placement-map serialization.

The paper's framework is a *feedback* pipeline: a profiling run writes
the Name and TRG profiles to disk, and a later compile/link step reads
them back to compute the placement (Section 3).  This module provides
that boundary: JSON round-tripping for :class:`~repro.profiling.Profile`
and :class:`~repro.core.PlacementMap`, so profiles can be archived,
diffed, or produced and consumed by separate processes.  The artifact
store keeps profiles as :func:`profile_to_payload` output instead: the
same fields, with the TRG edges as the profile's five int64 columns
(:attr:`~repro.profiling.profile_data.Profile.trg_columns`), written
as they are.  :func:`profile_from_payload` validates the columns and
the decoded profile keeps them, so a profile that is loaded and placed
never builds its edge dict.

JSON was chosen over pickle deliberately: the files are inspectable,
diffable, and loading one cannot execute code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..cache.config import CacheConfig
from ..core.cache_struct import CHUNK_BITS
from ..core.placement_map import HeapDecision, PlacementMap, PlacementStats
from ..trace.events import Category
from .profile_data import Entity, Profile, TRGColumns

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
    # One [a_eid, a_chunk, b_eid, b_chunk, weight] row per edge.
    trg = np.stack(profile.trg_columns, axis=1).tolist()
    return _profile_fields(profile, trg)


def _trg_columns_from_rows(rows, entities: dict) -> TRGColumns:
    """The ``[a_eid, a_chunk, b_eid, b_chunk, weight]`` rows as checked columns.

    The checks of :func:`_trg_columns_from_payload`, and no edge twice:
    a row repeating an earlier edge, in either endpoint order, would
    count its weight twice in the placement index.  Each endpoint packs
    into one ``(eid << CHUNK_BITS) | chunk`` key (entity ids outside 32
    bits are rank-compressed first, so the keys stay distinct); an edge
    is its (lower, higher) pair of endpoint ranks, one int64 per edge.
    """
    if not isinstance(rows, list):
        raise SerializationError("TRG is not a list of edge rows")
    try:
        table = np.array(rows) if rows else np.empty((0, 5), dtype=np.int64)
    except ValueError:
        raise SerializationError("TRG edge rows differ in length") from None
    if table.ndim != 2:
        raise SerializationError("TRG edge rows are not flat lists")
    trg = _trg_columns_from_payload(list(np.ascontiguousarray(table.T)), entities)
    count = len(trg.weight)
    eids = np.concatenate((trg.a_eid, trg.b_eid))
    if count and (eids.min() < -(1 << 31) or eids.max() >= 1 << 31):
        eids = np.unique(eids, return_inverse=True)[1]
    ends = (eids << CHUNK_BITS) | np.concatenate((trg.a_chunk, trg.b_chunk))
    lower = np.minimum(ends[:count], ends[count:])
    higher = np.maximum(ends[:count], ends[count:])
    points, rank = np.unique(np.concatenate((lower, higher)), return_inverse=True)
    edges = np.sort(rank[:count] * len(points) + rank[count:])
    if (edges[1:] == edges[:-1]).any():
        raise SerializationError("TRG repeats an edge")
    return trg


def profile_from_dict(data: dict) -> Profile:
    """Decode a profile from plain data, validating the envelope and TRG.

    The profile keeps the TRG as checked columns, in row order.

    Raises:
        SerializationError: A malformed envelope, a TRG row that is not
            five integers, a chunk out of range, an undeclared entity,
            or an edge given twice.
    """
    profile = _profile_from_fields(data)
    profile.trg_columns = _trg_columns_from_rows(data["trg"], profile.entities)
    return profile


def profile_to_payload(profile: Profile) -> dict:
    """A profile as an artifact-store payload.

    The same fields as :func:`profile_to_dict`, but the TRG edges are
    the five int64 :attr:`~repro.profiling.profile_data.Profile.trg_columns`
    (``a_eid, a_chunk, b_eid, b_chunk, weight``) in edge insertion
    order, which the store writes as array blocks.
    """
    return _profile_fields(profile, list(profile.trg_columns))


def _trg_columns_from_payload(columns, entities: dict) -> TRGColumns:
    """The payload's TRG columns, checked before a profile keeps them.

    Requires five equal-length 1-D integer columns, chunks that fit the
    placement index's packed pair key (non-negative, below
    ``2**CHUNK_BITS``) and endpoints that are declared entities.  A
    check that failed later, at a ``trg`` read or a placement, would
    escape the store's recompute-on-bad-entry path.
    """
    if not isinstance(columns, list) or len(columns) != len(TRGColumns._fields):
        raise SerializationError("TRG is not five edge columns")
    for column in columns:
        if not isinstance(column, np.ndarray) or column.ndim != 1:
            raise SerializationError("TRG edge column is not a 1-D array")
        if column.dtype.kind not in "iu":
            raise SerializationError(f"TRG edge column of dtype {column.dtype}")
    if len({len(column) for column in columns}) > 1:
        raise SerializationError("TRG edge columns differ in length")
    trg = TRGColumns(*(column.astype(np.int64, copy=False) for column in columns))
    for chunk in (trg.a_chunk, trg.b_chunk):
        if len(chunk) and (chunk.min() < 0 or chunk.max() >> CHUNK_BITS):
            raise SerializationError("TRG edge chunk out of range")
    declared = np.fromiter(entities, np.int64, len(entities))
    if not np.isin(np.concatenate((trg.a_eid, trg.b_eid)), declared).all():
        raise SerializationError("TRG edge names an undeclared entity")
    return trg


def profile_from_payload(data: dict) -> Profile:
    """Decode :func:`profile_to_payload` output.

    The profile keeps the validated columns, so it builds its edge dict
    (in column order, the encoded profile's order) only if
    :attr:`~repro.profiling.profile_data.Profile.trg` is read.

    Raises:
        SerializationError: A malformed envelope or TRG columns.
    """
    profile = _profile_from_fields(data)
    profile.trg_columns = _trg_columns_from_payload(data["trg"], profile.entities)
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
