"""Codecs for the pipeline artifacts the store persists.

A store payload is a JSON document whose bulky numeric fields travel as
array blocks (:mod:`repro.store.store`).  Here that means the per-object
counters of :class:`~repro.cache.simulator.CacheStats` (inside one
:class:`~repro.runtime.driver.MeasureResult`, with its optional
:class:`~repro.analysis.paging.PagingSummary`) and of
:class:`~repro.trace.stats.WorkloadStats`: each is written as its
``[ids, values]`` pair of int columns
(:class:`~repro.trace.stats.ObjectColumns`), in dict insertion order.
The decoder checks each pair and the decoded artifact keeps it, so its
dict is built, in the same order as a freshly computed one, only when
the field is read.  Enum members go by name in the document.  Profiles
carry their TRG edges as columns too
(:func:`repro.profiling.serialize.profile_to_payload`); placement maps
have no bulky fields and use their feedback-file codec.

:func:`cache_stats_to_dict` and :func:`workload_stats_to_dict` are the
plain-JSON renderings for serve responses and the benchmark's stats
digests; the store does not use them.
"""

from __future__ import annotations

import numpy as np

from ..analysis.paging import PagingSummary
from ..cache.simulator import CacheStats
from ..profiling.serialize import SerializationError
from ..trace.events import Category
from ..trace.stats import ObjectColumns, WorkloadStats, counter_columns


def _by_category_to_dict(counts: dict[Category, int]) -> dict[str, int]:
    return {category.name: int(counts[category]) for category in Category}


def _by_category_from_dict(data: dict[str, int]) -> dict[Category, int]:
    return {category: int(data[category.name]) for category in Category}


def _object_rows(stats, name: str) -> list[list[int]]:
    """A per-object counter field as ``[id, value]`` rows, read as a dict."""
    return [[int(key), int(value)] for key, value in getattr(stats, name).items()]


def _object_blocks(stats, name: str, dtype=np.int64) -> list[np.ndarray]:
    """A per-object counter field as its ``[ids, values]`` blocks, building no dict."""
    ids, values = counter_columns(stats, name)
    return [ids.astype(np.int64, copy=False), values.astype(dtype, copy=False)]


def _checked_columns(columns, name: str, categories: bool = False) -> ObjectColumns:
    """A payload's ``[ids, values]`` blocks, checked before an artifact keeps them.

    Requires two equal-length 1-D integer columns and non-negative,
    unique ids; a category column must name ``Category`` members.  The
    direct-mapped kernel emits ascending ids, which one strict-increase
    test settles; only other orders (first touch) are sorted.
    """
    if not isinstance(columns, list) or len(columns) != 2:
        raise SerializationError(f"{name} is not an id and a value column")
    for column in columns:
        if not isinstance(column, np.ndarray) or column.ndim != 1:
            raise SerializationError(f"{name} column is not a 1-D array")
        if column.dtype.kind not in "iu":
            raise SerializationError(f"{name} column of dtype {column.dtype}")
    ids, values = columns
    if len(ids) != len(values):
        raise SerializationError(f"{name} columns differ in length")
    if len(ids):
        ascending = bool((ids[1:] > ids[:-1]).all())
        ordered = ids if ascending else np.sort(ids)
        if ordered[0] < 0:
            raise SerializationError(f"{name} has a negative object id")
        if not ascending and (ordered[1:] == ordered[:-1]).any():
            raise SerializationError(f"{name} repeats an object id")
        if categories and (values.min() < 0 or values.max() >= len(Category)):
            raise SerializationError(f"{name} holds a value that is no category")
    return ObjectColumns(
        ids.astype(np.int64, copy=False), values.astype(np.int64, copy=False)
    )


# -- cache statistics ---------------------------------------------------------


def _cache_stats_fields(stats: CacheStats, by_object) -> dict:
    return {
        "accesses": int(stats.accesses),
        "misses": int(stats.misses),
        "accesses_by_category": _by_category_to_dict(stats.accesses_by_category),
        "misses_by_category": _by_category_to_dict(stats.misses_by_category),
        "accesses_by_object": by_object(stats, "accesses_by_object"),
        "misses_by_object": by_object(stats, "misses_by_object"),
        "compulsory": int(stats.compulsory),
        "capacity": int(stats.capacity),
        "conflict": int(stats.conflict),
        "writebacks": int(stats.writebacks),
    }


def cache_stats_to_dict(stats: CacheStats) -> dict:
    """Plain JSON of hit/miss counters with their category/object attribution."""
    return _cache_stats_fields(stats, _object_rows)


def _cache_stats_from_payload(data: dict) -> CacheStats:
    return CacheStats(
        accesses=data["accesses"],
        misses=data["misses"],
        accesses_by_category=_by_category_from_dict(data["accesses_by_category"]),
        misses_by_category=_by_category_from_dict(data["misses_by_category"]),
        accesses_by_object=_checked_columns(
            data["accesses_by_object"], "accesses_by_object"
        ),
        misses_by_object=_checked_columns(data["misses_by_object"], "misses_by_object"),
        compulsory=data["compulsory"],
        capacity=data["capacity"],
        conflict=data["conflict"],
        writebacks=data["writebacks"],
    )


# -- measurement results ------------------------------------------------------


def measure_result_to_payload(result) -> dict:
    """Store payload of one (cache stats, optional paging summary) measurement."""
    paging = None
    if result.paging is not None:
        paging = {
            "total_pages": int(result.paging.total_pages),
            "working_set": float(result.paging.working_set),
        }
    return {
        "cache": _cache_stats_fields(result.cache, _object_blocks),
        "paging": paging,
    }


def measure_result_from_payload(data: dict):
    """Decode :func:`measure_result_to_payload` output into a MeasureResult.

    Raises:
        SerializationError: A per-object block pair fails its checks.
    """
    from ..runtime.driver import MeasureResult

    paging = None
    if data.get("paging") is not None:
        paging = PagingSummary(
            total_pages=data["paging"]["total_pages"],
            working_set=data["paging"]["working_set"],
        )
    return MeasureResult(cache=_cache_stats_from_payload(data["cache"]), paging=paging)


# -- workload statistics ------------------------------------------------------


def _workload_stats_fields(stats: WorkloadStats, by_object, object_categories) -> dict:
    return {
        "instructions": int(stats.instructions),
        "loads": int(stats.loads),
        "stores": int(stats.stores),
        "refs_by_category": _by_category_to_dict(stats.refs_by_category),
        "alloc_count": int(stats.alloc_count),
        "alloc_bytes": int(stats.alloc_bytes),
        "free_count": int(stats.free_count),
        "free_bytes": int(stats.free_bytes),
        "refs_by_object": by_object(stats, "refs_by_object"),
        "object_sizes": by_object(stats, "object_sizes"),
        "object_categories": object_categories,
        "max_stack_depth": int(stats.max_stack_depth),
    }


def workload_stats_to_dict(stats: WorkloadStats) -> dict:
    """Plain JSON of Table 1 statistics for one (workload, input) run."""
    categories = _object_rows(stats, "object_categories")
    return _workload_stats_fields(stats, _object_rows, categories)


def workload_stats_to_payload(stats: WorkloadStats) -> dict:
    """Store payload of Table 1 statistics for one (workload, input) run."""
    categories = _object_blocks(stats, "object_categories", np.int8)
    return _workload_stats_fields(stats, _object_blocks, categories)


def workload_stats_from_payload(data: dict) -> WorkloadStats:
    """Decode :func:`workload_stats_to_payload` output.

    Raises:
        SerializationError: A per-object block pair fails its checks.
    """
    return WorkloadStats(
        instructions=data["instructions"],
        loads=data["loads"],
        stores=data["stores"],
        refs_by_category=_by_category_from_dict(data["refs_by_category"]),
        alloc_count=data["alloc_count"],
        alloc_bytes=data["alloc_bytes"],
        free_count=data["free_count"],
        free_bytes=data["free_bytes"],
        refs_by_object=_checked_columns(data["refs_by_object"], "refs_by_object"),
        object_sizes=_checked_columns(data["object_sizes"], "object_sizes"),
        object_categories=_checked_columns(
            data["object_categories"], "object_categories", categories=True
        ),
        max_stack_depth=data["max_stack_depth"],
    )
