"""The observability subsystem: spans, counters, reports, invariants."""

from __future__ import annotations

import json

import pytest

from repro.cache.simulator import CacheStats
from repro.obs import invariants
from repro.obs.report import RunReport, run_report
from repro.obs.telemetry import (
    PEAK_RSS_GAUGE,
    Span,
    Telemetry,
    child_span,
    count,
    current,
    gauge,
    span,
    use,
)
from repro.core.placement_map import PlacementStats
from repro.profiling.serialize import placement_from_dict, placement_to_dict
from repro.runtime.driver import build_placement, run_experiment
from repro.trace.events import Category
from tests.oracles import ScalarPlacer


class TestTelemetry:
    def test_span_nesting_builds_a_tree(self):
        registry = Telemetry()
        with registry.span("outer"):
            with registry.span("inner.a"):
                pass
            with registry.span("inner.b"):
                pass
        assert [root.name for root in registry.roots] == ["outer"]
        outer = registry.roots[0]
        assert [child.name for child in outer.children] == ["inner.a", "inner.b"]
        assert outer.seconds >= sum(c.seconds for c in outer.children)

    def test_reentered_span_name_accumulates_separately(self):
        registry = Telemetry()
        for _ in range(3):
            with registry.span("work"):
                pass
        assert len(registry.roots) == 3

    def test_counters_are_monotonic_and_gauges_last_write(self):
        registry = Telemetry()
        registry.count("events", 5)
        registry.count("events", 7)
        registry.gauge("ratio", 0.5)
        registry.gauge("ratio", 0.25)
        assert registry.counters["events"] == 12
        assert registry.gauges["ratio"] == 0.25

    def test_free_functions_are_noops_without_registry(self):
        assert current() is None
        count("orphan", 3)
        gauge("orphan", 1.0)
        with span("orphan"):
            pass  # must not raise and must not record anywhere

    def test_free_functions_route_to_installed_registry(self):
        registry = Telemetry()
        with use(registry):
            assert current() is registry
            count("hits", 2)
            with span("timed"):
                gauge("depth", 4.0)
        assert current() is None
        assert registry.counters == {"hits": 2}
        # Span exits sample the peak-RSS high-water mark as a gauge.
        assert registry.gauges.pop(PEAK_RSS_GAUGE, 0) >= 0
        assert registry.gauges == {"depth": 4.0}
        assert registry.find("timed") is not None

    def test_store_steps_record_only_inside_a_span(self, tmp_path):
        """A store read outside any stage adds no root span.

        ``repro serve`` keeps one registry for its whole life, and every
        request reads the store.
        """
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        digest = store.key("stats", {"trace": "abc"})
        store.put("stats", digest, {"trace": "abc"}, {"value": 1})
        registry = Telemetry()
        with use(registry):
            with child_span("lone"):
                assert store.get("stats", digest) == {"value": 1}
            assert registry.roots == []
            with span("stage"):
                store.get("stats", digest)
        (stage,) = registry.roots
        assert [child.name for child in stage.children] == [
            "store.read",
            "store.decode",
        ]
        assert [child.name for child in stage.children[1].children] == [
            "store.verify"
        ]

    def test_use_restores_previous_registry(self):
        first, second = Telemetry(), Telemetry()
        with use(first):
            with use(second):
                count("n")
            count("n")
        assert second.counters == {"n": 1}
        assert first.counters == {"n": 1}

    def test_round_trip_through_dict(self):
        registry = Telemetry()
        with registry.span("root", workload="toy"):
            with registry.span("child"):
                pass
        registry.count("edges", 9)
        registry.gauge("load", 1.5)
        data = json.loads(json.dumps(registry.to_dict()))
        rebuilt = Span.from_dict(data["spans"][0])
        assert rebuilt.name == "root"
        assert rebuilt.meta == {"workload": "toy"}
        assert rebuilt.find("child") is not None
        assert data["counters"] == {"edges": 9}
        assert data["gauges"].pop(PEAK_RSS_GAUGE, 0) >= 0
        assert data["gauges"] == {"load": 1.5}

    def test_gauge_max_is_a_high_water_mark(self):
        registry = Telemetry()
        registry.gauge_max("peak", 5.0)
        registry.gauge_max("peak", 3.0)
        assert registry.gauges["peak"] == 5.0
        registry.gauge_max("peak", 9.0)
        assert registry.gauges["peak"] == 9.0

    def test_peak_rss_sampling_is_positive_and_monotonic(self):
        from repro.obs import peak_rss_bytes

        first = peak_rss_bytes()
        assert first > 0
        assert peak_rss_bytes() >= first

    def test_merge_child_maxes_peak_rss_instead_of_overwriting(self):
        parent, child = Telemetry(), Telemetry()
        parent.gauge_max(PEAK_RSS_GAUGE, 500.0)
        child.gauge(PEAK_RSS_GAUGE, 100.0)
        child.gauge("worker.peak_rss", 250.0)
        child.gauge("ratio", 0.5)
        parent.merge_child(child.to_dict(), label="worker[0]")
        # A smaller child peak must not clobber the parent's high water.
        assert parent.gauges[PEAK_RSS_GAUGE] == 500.0
        assert parent.gauges["worker.peak_rss"] == 250.0
        assert parent.gauges["ratio"] == 0.5
        bigger = Telemetry()
        bigger.gauge(PEAK_RSS_GAUGE, 900.0)
        parent.merge_child(bigger.to_dict(), label="worker[1]")
        assert parent.gauges[PEAK_RSS_GAUGE] == 900.0

    def test_merge_child_sums_counters_and_wraps_spans(self):
        parent, child = Telemetry(), Telemetry()
        parent.count("events", 10)
        with child.span("run"):
            pass
        child.count("events", 32)
        parent.merge_child(child.to_dict(), label="worker[0]")
        assert parent.counters["events"] == 42
        wrapper = parent.find("worker[0]")
        assert wrapper is not None
        assert [c.name for c in wrapper.children] == ["run"]

    def test_render_mentions_spans_and_counters(self):
        registry = Telemetry()
        with registry.span("alpha"):
            with registry.span("beta"):
                pass
        registry.count("gamma", 3)
        text = registry.render()
        assert "alpha" in text and "beta" in text
        assert "gamma" in text and "ms" in text


class TestInvariants:
    def _consistent_stats(self) -> CacheStats:
        stats = CacheStats()
        stats.accesses = 10
        stats.misses = 4
        stats.accesses_by_category[Category.GLOBAL] = 6
        stats.accesses_by_category[Category.STACK] = 4
        stats.misses_by_category[Category.GLOBAL] = 3
        stats.misses_by_category[Category.STACK] = 1
        stats.accesses_by_object = {1: 6, 2: 4}
        stats.misses_by_object = {1: 3, 2: 1}
        return stats

    def test_consistent_stats_pass(self):
        invariants.check_cache_stats(self._consistent_stats())

    def test_category_leak_is_caught(self):
        stats = self._consistent_stats()
        stats.misses_by_category[Category.HEAP] = 1  # orphan miss
        with pytest.raises(invariants.InvariantError, match="per-category"):
            invariants.check_cache_stats(stats, context="unit")

    def test_object_leak_is_caught(self):
        stats = self._consistent_stats()
        stats.misses_by_object[2] = 2
        with pytest.raises(invariants.InvariantError, match="per-object"):
            invariants.check_cache_stats(stats)

    def test_three_cs_must_readd_when_present(self):
        stats = self._consistent_stats()
        stats.compulsory, stats.capacity, stats.conflict = 2, 1, 0
        with pytest.raises(invariants.InvariantError, match="three-Cs"):
            invariants.check_cache_stats(stats)
        stats.conflict = 1
        invariants.check_cache_stats(stats)

    def test_maybe_check_respects_global_switch(self):
        stats = self._consistent_stats()
        stats.misses_by_category[Category.HEAP] = 1
        invariants.set_enabled(False)
        try:
            invariants.maybe_check_cache_stats(stats)  # disabled: silent
        finally:
            invariants.set_enabled(True)
        with pytest.raises(invariants.InvariantError):
            invariants.maybe_check_cache_stats(stats)

    def test_invariant_error_is_an_assertion(self):
        assert issubclass(invariants.InvariantError, AssertionError)

    def test_cache_stats_check_conservation_method(self):
        stats = self._consistent_stats()
        stats.check_conservation()
        stats.misses_by_category[Category.HEAP] = 1
        with pytest.raises(invariants.InvariantError):
            stats.check_conservation()


class TestInstrumentedPipeline:
    def test_placer_phase_spans_and_seconds(self, toy_workload, small_cache):
        registry = Telemetry()
        with use(registry):
            _profile, placement = build_placement(
                toy_workload, cache_config=small_cache
            )
        place_span = registry.find("place")
        assert place_span is not None
        phase_names = [child.name for child in place_span.children]
        for phase in range(9):
            assert f"place.phase{phase}" in phase_names
        merge = registry.find("place.phase6")
        stats = placement.stats
        assert stats.place_seconds == place_span.seconds > 0
        assert stats.merge_loop_seconds == merge.seconds
        assert stats.merge_loop_seconds <= stats.place_seconds
        assert registry.counters["place.merges"] == stats.merges
        assert registry.counters["place.anchors"] == stats.anchors
        assert registry.counters["place.conflict_scans"] > 0
        assert (
            registry.counters["place.merge_loop.iterations"]
            >= stats.merges + registry.counters["place.merge_loop.stale_skips"]
        )

    def test_seconds_populated_without_a_registry(self, toy_workload, small_cache):
        assert current() is None
        _profile, placement = build_placement(
            toy_workload, cache_config=small_cache
        )
        assert placement.stats.place_seconds > 0
        assert 0 < placement.stats.merge_loop_seconds <= placement.stats.place_seconds

    def test_experiment_counters_reconcile_with_stats(
        self, toy_workload, small_cache
    ):
        registry = Telemetry()
        with use(registry):
            result = run_experiment(toy_workload, cache_config=small_cache)
        # Both measurement arms stream the same test trace through the
        # batched engine chunk-wise: the sim.events counter is the total
        # event count across arms and must reconcile exactly with the
        # per-arm access totals... which per-category sums must also hit.
        total_accesses = (
            result.original.cache.accesses + result.ccdp.cache.accesses
        )
        events = registry.counters["sim.events"]
        # Multi-block references count one access per touched block, so
        # accesses >= events, with equality when no access straddles lines.
        assert events <= total_accesses
        for arm in (result.original.cache, result.ccdp.cache):
            assert sum(arm.misses_by_category.values()) == arm.misses
            assert sum(arm.accesses_by_category.values()) == arm.accesses
        assert registry.counters["profile.events"] > 0
        assert registry.counters["profile.trg_edges"] > 0
        assert registry.find("measure.original") is not None
        assert registry.find("measure.ccdp") is not None
        assert registry.find("simulate") is not None


class TestRunReport:
    def test_run_report_end_to_end(self, small_cache):
        report = run_report("espresso", cache_config=small_cache)
        data = report.to_dict()
        assert data["workload"] == "espresso"
        for summary in data["simulation"].values():
            assert (
                sum(summary["misses_by_category"].values()) == summary["misses"]
            )
        assert data["trace"]["loads"] + data["trace"]["stores"] == sum(
            data["trace"]["refs_by_category"].values()
        )
        assert data["telemetry"]["spans"]

    def test_report_from_experiment(self, toy_workload, small_cache):
        registry = Telemetry()
        with use(registry):
            result = run_experiment(toy_workload, cache_config=small_cache)
        report = RunReport.from_experiment(result, registry)
        data = report.to_dict()
        assert data["kind"] == "ccdp-run-report"
        for arm, summary in data["simulation"].items():
            assert (
                sum(summary["misses_by_category"].values()) == summary["misses"]
            ), arm
            assert (
                sum(summary["accesses_by_category"].values())
                == summary["accesses"]
            ), arm
        assert data["invariants"]["miss_attribution_conserved"] is True
        assert data["telemetry"]["counters"]
        parsed = json.loads(report.to_json())
        assert parsed == data
        rendered = report.render()
        assert "miss attribution" in rendered
        assert "place.phase6" in rendered
        assert "peak RSS" in rendered

    def test_report_renders_scheduler_counters(self, toy_workload, small_cache):
        registry = Telemetry()
        with use(registry):
            result = run_experiment(toy_workload, cache_config=small_cache)
            registry.count("sched.dedup", 3)
            registry.count("sched.pruned", 2)
            registry.gauge("sched.critical_path_seconds", 1.25)
        report = RunReport.from_experiment(result, registry)
        rendered = report.render()
        assert "scheduler: dedup=3 pruned=2 critical_path=1.25s" in rendered

    def test_run_report_survives_a_fully_warm_store(self, tmp_path, small_cache):
        from repro.store import ArtifactStore, use_store

        with use_store(ArtifactStore(tmp_path)):
            cold = run_report("espresso", cache_config=small_cache)
            warm = run_report("espresso", cache_config=small_cache)
        assert warm.to_dict()["trace"] == cold.to_dict()["trace"]
        assert warm.to_dict()["simulation"] == cold.to_dict()["simulation"]

    def test_report_rejects_leaky_stats(self, toy_workload, small_cache):
        result = run_experiment(toy_workload, cache_config=small_cache)
        result.ccdp.cache.misses_by_category[Category.HEAP] += 1
        with pytest.raises(invariants.InvariantError):
            RunReport.from_experiment(result)


class TestPlacementStatsFieldExclusion:
    """Satellite regression: timing fields stay out of equality/serialization."""

    def test_seconds_fields_do_not_affect_equality(self):
        fast = PlacementStats(merges=3, place_seconds=0.001, merge_loop_seconds=0.0005)
        slow = PlacementStats(merges=3, place_seconds=9.9, merge_loop_seconds=4.4)
        different = PlacementStats(merges=4)
        assert fast == slow
        assert fast != different

    def test_seconds_fields_are_not_serialized(self, toy_workload, small_cache):
        _profile, placement = build_placement(
            toy_workload, cache_config=small_cache
        )
        assert placement.stats.place_seconds > 0
        data = placement_to_dict(placement)
        assert "place_seconds" not in data["stats"]
        assert "merge_loop_seconds" not in data["stats"]
        restored = placement_from_dict(json.loads(json.dumps(data)))
        assert restored.stats.place_seconds == 0.0
        assert restored.stats.merge_loop_seconds == 0.0
        assert restored.stats == placement.stats

    def test_engine_parity_unaffected_by_timing(self, toy_workload, small_cache):
        """Array and oracle placements compare equal despite timing skew."""
        profile, array = build_placement(toy_workload, cache_config=small_cache)
        scalar = ScalarPlacer(
            profile, cache_config=small_cache, place_heap=toy_workload.place_heap
        ).place()
        assert array.stats == scalar.stats
        assert array.stats.place_seconds != 0.0
        assert scalar.stats.place_seconds != 0.0
