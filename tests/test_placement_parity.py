"""Placement parity: the array conflict scans are bit-identical to scalar.

The vectorized placement engine (`repro.core.placement_engine`) that
`CCDPPlacer` runs on is only admissible because it makes exactly the
decisions of the dict-based reference path (`tests.oracles.ScalarPlacer`):
identical global offsets, data/stack bases, heap tables, and
`PlacementStats` counters.  This suite asserts full `PlacementMap`
equality for all nine paper workloads across three cache geometries
(the paper's 8K/32B plus a larger-line and a smaller-capacity variant).

Profiles are rebuilt per geometry — the TRG queue threshold is 2x the
cache size, so different geometries legitimately produce different
profiles — but recorded traces are shared through the experiment-level
trace cache, keeping the suite fast.
"""

from __future__ import annotations

import pytest

from repro.cache.config import CacheConfig
from repro.core.algorithm import CCDPPlacer
from repro.experiments.common import cached_trace
from repro.profiling.batch import profile_trace
from repro.workloads import make_workload, workload_names
from tests.oracles import ScalarPlacer

GEOMETRIES = (
    CacheConfig(8192, 32, 1),
    CacheConfig(16384, 64, 1),
    CacheConfig(4096, 32, 1),
)


def _geometry_id(config: CacheConfig) -> str:
    return f"{config.size}B-{config.line_size}B-{config.associativity}w"


def _place(name: str, config: CacheConfig, placer_class=CCDPPlacer):
    workload = make_workload(name)
    trace = cached_trace(name, workload.train_input)
    profile = profile_trace(trace, cache_config=config)
    placer = placer_class(profile, config, place_heap=workload.place_heap)
    return placer.place()


@pytest.mark.parametrize("config", GEOMETRIES, ids=_geometry_id)
@pytest.mark.parametrize("name", workload_names())
def test_array_engine_matches_scalar(name, config):
    scalar_map = _place(name, config, ScalarPlacer)
    array_map = _place(name, config)
    # Field-by-field first for readable failures, then the full dataclass
    # equality (which covers cache_config and the stats counters too).
    assert array_map.global_offsets == scalar_map.global_offsets
    assert array_map.data_base == scalar_map.data_base
    assert array_map.stack_base == scalar_map.stack_base
    assert array_map.heap_table == scalar_map.heap_table
    assert array_map.stats == scalar_map.stats
    assert array_map == scalar_map


class TestEngineSelection:
    def test_timings_recorded_but_ignored_by_equality(self):
        placement = _place("deltablue", GEOMETRIES[0])
        assert placement.stats.place_seconds > 0.0
        assert (
            0.0 <= placement.stats.merge_loop_seconds
            <= placement.stats.place_seconds
        )
        other = _place("deltablue", GEOMETRIES[0], ScalarPlacer)
        # Wall-clock necessarily differs between runs, yet maps are equal.
        assert placement == other
