"""Vectorized data-cache simulation (direct-mapped, set-associative, 2-level)."""

from .batch import BatchCacheSimulator, expand_blocks
from .config import CacheConfig, PAPER_CACHE
from .hierarchy import DEFAULT_L2, HierarchyStats, TwoLevelCache
from .simulator import CacheStats

__all__ = [
    "BatchCacheSimulator",
    "CacheConfig",
    "CacheStats",
    "DEFAULT_L2",
    "expand_blocks",
    "HierarchyStats",
    "PAPER_CACHE",
    "TwoLevelCache",
]
