"""Codecs for the pipeline artifacts the store persists.

A store payload is a JSON document whose bulky numeric fields travel as
array blocks (:mod:`repro.store.store`).  Here that means the per-object
dicts of :class:`~repro.cache.simulator.CacheStats` (inside one
:class:`~repro.runtime.driver.MeasureResult`, with its optional
:class:`~repro.analysis.paging.PagingSummary`) and of
:class:`~repro.trace.stats.WorkloadStats`: each becomes a ``[keys,
values]`` pair of int columns written in dict insertion order, and the
decoder rebuilds it with ``dict(zip(keys.tolist(), values.tolist()))``,
so a decoded artifact compares equal to, and iterates in the same order
as, a freshly computed one.  Enum members go by name in the document.
Profiles carry their TRG edges as columns too
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
from ..trace.events import Category
from ..trace.stats import WorkloadStats

#: ``Category`` members by value, for decoding a category column.
_CATEGORY_OF = {category.value: category for category in Category}


def _by_category_to_dict(counts: dict[Category, int]) -> dict[str, int]:
    return {category.name: int(counts[category]) for category in Category}


def _by_category_from_dict(data: dict[str, int]) -> dict[Category, int]:
    return {category: int(data[category.name]) for category in Category}


def _by_object_to_list(counts: dict[int, int]) -> list[list[int]]:
    return [[int(key), int(value)] for key, value in counts.items()]


def _object_columns(counts: dict, dtype=np.int64) -> list[np.ndarray]:
    """A per-object dict as ``[keys, values]`` columns, in insertion order."""
    return [
        np.fromiter(counts.keys(), np.int64, len(counts)),
        np.fromiter(counts.values(), dtype, len(counts)),
    ]


def _object_dict(columns: list, convert=None) -> dict:
    """Inverse of :func:`_object_columns` (``convert`` maps each value)."""
    keys, values = columns
    values = values.tolist()
    if convert is not None:
        values = map(convert, values)
    return dict(zip(keys.tolist(), values, strict=True))


# -- cache statistics ---------------------------------------------------------


def _cache_stats_fields(stats: CacheStats, by_object) -> dict:
    return {
        "accesses": int(stats.accesses),
        "misses": int(stats.misses),
        "accesses_by_category": _by_category_to_dict(stats.accesses_by_category),
        "misses_by_category": _by_category_to_dict(stats.misses_by_category),
        "accesses_by_object": by_object(stats.accesses_by_object),
        "misses_by_object": by_object(stats.misses_by_object),
        "compulsory": int(stats.compulsory),
        "capacity": int(stats.capacity),
        "conflict": int(stats.conflict),
        "writebacks": int(stats.writebacks),
    }


def cache_stats_to_dict(stats: CacheStats) -> dict:
    """Plain JSON of hit/miss counters with their category/object attribution."""
    return _cache_stats_fields(stats, _by_object_to_list)


def _cache_stats_from_payload(data: dict) -> CacheStats:
    return CacheStats(
        accesses=data["accesses"],
        misses=data["misses"],
        accesses_by_category=_by_category_from_dict(data["accesses_by_category"]),
        misses_by_category=_by_category_from_dict(data["misses_by_category"]),
        accesses_by_object=_object_dict(data["accesses_by_object"]),
        misses_by_object=_object_dict(data["misses_by_object"]),
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
        "cache": _cache_stats_fields(result.cache, _object_columns),
        "paging": paging,
    }


def measure_result_from_payload(data: dict):
    """Decode :func:`measure_result_to_payload` output into a MeasureResult."""
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
        "refs_by_object": by_object(stats.refs_by_object),
        "object_sizes": by_object(stats.object_sizes),
        "object_categories": object_categories,
        "max_stack_depth": int(stats.max_stack_depth),
    }


def workload_stats_to_dict(stats: WorkloadStats) -> dict:
    """Plain JSON of Table 1 statistics for one (workload, input) run."""
    categories = [
        [int(obj_id), int(category)]
        for obj_id, category in stats.object_categories.items()
    ]
    return _workload_stats_fields(stats, _by_object_to_list, categories)


def workload_stats_to_payload(stats: WorkloadStats) -> dict:
    """Store payload of Table 1 statistics for one (workload, input) run."""
    categories = _object_columns(stats.object_categories, np.int8)
    return _workload_stats_fields(stats, _object_columns, categories)


def workload_stats_from_payload(data: dict) -> WorkloadStats:
    """Decode :func:`workload_stats_to_payload` output."""
    return WorkloadStats(
        instructions=data["instructions"],
        loads=data["loads"],
        stores=data["stores"],
        refs_by_category=_by_category_from_dict(data["refs_by_category"]),
        alloc_count=data["alloc_count"],
        alloc_bytes=data["alloc_bytes"],
        free_count=data["free_count"],
        free_bytes=data["free_bytes"],
        refs_by_object=_object_dict(data["refs_by_object"]),
        object_sizes=_object_dict(data["object_sizes"]),
        object_categories=_object_dict(
            data["object_categories"], _CATEGORY_OF.__getitem__
        ),
        max_stack_depth=data["max_stack_depth"],
    )
