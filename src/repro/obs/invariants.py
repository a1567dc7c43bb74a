"""Conservation invariants over cache and workload statistics.

The paper's per-category miss columns are *additive by construction*
(Stack + Global + Heap + Const == D-Miss, Section 5); the engines
preserve that property only if every miss is attributed to exactly one
category and one object.  This module asserts the conservation laws on
every instrumented run:

* sum of per-category misses == total misses (and likewise accesses);
* sum of per-object misses == total misses (and likewise accesses);
* the three-Cs split (compulsory + capacity + conflict), when present,
  re-adds to total misses;
* workload statistics conserve references across categories and objects.

Checks are **on by default** (the test suite pins them on via an autouse
fixture); they cost a handful of sums per *run*, never per event.  The
per-object sums read the counters' columns
(:func:`~repro.trace.stats.counter_columns`), so a check builds no
per-object dict.
:func:`set_enabled` exists for callers that want to measure with the
checker off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..trace.stats import counter_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.simulator import CacheStats
    from ..trace.stats import WorkloadStats

_enabled = True


class InvariantError(AssertionError):
    """An instrumented run violated a conservation invariant."""


def set_enabled(enabled: bool) -> None:
    """Globally enable or disable the per-run invariant checks."""
    global _enabled
    _enabled = bool(enabled)


def enabled() -> bool:
    """Whether per-run invariant checks are active."""
    return _enabled


def _object_sum(stats, name: str) -> int:
    """Sum of one per-object counter field."""
    return int(counter_columns(stats, name).values.sum())


def cache_stats_failures(stats: CacheStats) -> list[str]:
    """Conservation violations in one :class:`CacheStats`, as messages."""
    failures: list[str] = []
    cat_misses = sum(stats.misses_by_category.values())
    if cat_misses != stats.misses:
        failures.append(
            f"per-category misses sum to {cat_misses}, total is {stats.misses}"
        )
    cat_accesses = sum(stats.accesses_by_category.values())
    if cat_accesses != stats.accesses:
        failures.append(
            f"per-category accesses sum to {cat_accesses}, "
            f"total is {stats.accesses}"
        )
    obj_misses = _object_sum(stats, "misses_by_object")
    if obj_misses != stats.misses:
        failures.append(
            f"per-object misses sum to {obj_misses}, total is {stats.misses}"
        )
    obj_accesses = _object_sum(stats, "accesses_by_object")
    if obj_accesses != stats.accesses:
        failures.append(
            f"per-object accesses sum to {obj_accesses}, "
            f"total is {stats.accesses}"
        )
    if stats.misses > stats.accesses:
        failures.append(f"misses ({stats.misses}) exceed accesses ({stats.accesses})")
    three_cs = stats.compulsory + stats.capacity + stats.conflict
    if three_cs and three_cs != stats.misses:
        failures.append(
            f"three-Cs split sums to {three_cs}, total misses {stats.misses}"
        )
    return failures


def workload_stats_failures(stats: WorkloadStats) -> list[str]:
    """Conservation violations in one :class:`WorkloadStats`."""
    failures: list[str] = []
    total = stats.memory_refs
    cat_refs = sum(stats.refs_by_category.values())
    if cat_refs != total:
        failures.append(f"per-category references sum to {cat_refs}, total is {total}")
    obj_refs = _object_sum(stats, "refs_by_object")
    if obj_refs != total:
        failures.append(f"per-object references sum to {obj_refs}, total is {total}")
    if stats.loads + stats.stores != total:
        failures.append(f"loads ({stats.loads}) + stores ({stats.stores}) != {total}")
    return failures


def check_cache_stats(stats: CacheStats, context: str = "") -> None:
    """Raise :class:`InvariantError` on any cache-stats violation.

    Runs regardless of :func:`enabled` — callers that want the global
    switch go through :func:`maybe_check_cache_stats`.
    """
    failures = cache_stats_failures(stats)
    if failures:
        where = f" [{context}]" if context else ""
        raise InvariantError(
            "miss-attribution conservation violated"
            + where
            + ":\n  "
            + "\n  ".join(failures)
        )


def check_workload_stats(stats: WorkloadStats, context: str = "") -> None:
    """Raise :class:`InvariantError` on any workload-stats violation."""
    failures = workload_stats_failures(stats)
    if failures:
        where = f" [{context}]" if context else ""
        raise InvariantError(
            "reference-attribution conservation violated"
            + where
            + ":\n  "
            + "\n  ".join(failures)
        )


def maybe_check_cache_stats(stats: CacheStats, context: str = "") -> None:
    """Run :func:`check_cache_stats` when checks are globally enabled."""
    if _enabled:
        check_cache_stats(stats, context)


def maybe_check_workload_stats(stats: WorkloadStats, context: str = "") -> None:
    """Run :func:`check_workload_stats` when checks are globally enabled."""
    if _enabled:
        check_workload_stats(stats, context)
