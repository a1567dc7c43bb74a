"""Sweep grid construction, verdicts, inversion detection, execution."""

from __future__ import annotations

import pytest

from repro.runtime.parallel import ExperimentSpec
from repro.sched.jobs import plan_experiments
from repro.sweep import (
    QUICK_ASSOCIATIVITIES,
    QUICK_SIZES,
    QUICK_WORKLOADS,
    SweepCell,
    build_grid,
    default_cost_model,
    find_inversions,
    render_sweep,
    run_sweep,
    verdict,
)


class TestGrid:
    def test_default_grid_shape(self):
        cells = build_grid()
        assert len(cells) == 5 * 3 * 3
        assert len({cell.label for cell in cells}) == len(cells)

    def test_quick_grid_is_two_by_two(self):
        cells = build_grid(
            sizes=QUICK_SIZES,
            associativities=QUICK_ASSOCIATIVITIES,
            workloads=QUICK_WORKLOADS,
        )
        assert len(cells) == 4
        assert {cell.workload for cell in cells} == set(QUICK_WORKLOADS)

    def test_auto_cost_model_tracks_ways(self):
        assert default_cost_model(1) == "direct"
        assert default_cost_model(4) == "assoc"
        cells = build_grid(
            sizes=(8192,), associativities=(1, 2), workloads=("espresso",)
        )
        by_assoc = {cell.associativity: cell.cost_model for cell in cells}
        assert by_assoc == {1: "direct", 2: "assoc"}

    def test_explicit_cost_model_applies_uniformly(self):
        cells = build_grid(
            sizes=(8192,),
            associativities=(1, 2),
            workloads=("espresso",),
            cost_model="two-level",
        )
        assert {cell.cost_model for cell in cells} == {"two-level"}

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError, match="invalid geometry"):
            build_grid(sizes=(8192,), associativities=(3,))

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workloads: doom"):
            build_grid(workloads=("doom",))

    def test_unknown_cost_model_rejected(self):
        with pytest.raises(ValueError, match="unknown cost model"):
            build_grid(cost_model="quantum")

    def test_family_workloads_resolve(self):
        cells = build_grid(
            sizes=(8192,),
            associativities=(1,),
            workloads=("layout-stress", "alloc-mix"),
        )
        assert [cell.workload for cell in cells] == ["layout-stress", "alloc-mix"]

    def test_cell_spec_carries_cost_model(self):
        cell = SweepCell("espresso", 8192, 32, 4, "assoc")
        spec = cell.spec()
        assert isinstance(spec, ExperimentSpec)
        assert spec.cost_model == "assoc"
        assert spec.cache_config.associativity == 4
        assert cell.geometry == "8192:32:4"


class TestVerdicts:
    def test_verdict_bands(self):
        assert verdict(10.0, 5.0) == "win"
        assert verdict(5.0, 10.0) == "loss"
        assert verdict(5.0, 5.05) == "tie"
        assert verdict(5.05, 5.0) == "tie"

    def _cell(self, workload, assoc, result_verdict):
        return {
            "workload": workload,
            "size": 8192,
            "line_size": 32,
            "associativity": assoc,
            "verdict": result_verdict,
            "ok": True,
        }

    def test_inversion_requires_differing_verdicts(self):
        cells = [
            self._cell("a", 1, "win"),
            self._cell("a", 4, "tie"),
            self._cell("b", 1, "win"),
            self._cell("b", 4, "win"),
        ]
        inversions = find_inversions(cells)
        assert len(inversions) == 1
        assert inversions[0]["workload"] == "a"
        assert inversions[0]["verdicts"] == {"1": "win", "4": "tie"}

    def test_single_associativity_never_inverts(self):
        assert find_inversions([self._cell("a", 1, "win")]) == []

    def test_failed_cells_are_skipped(self):
        broken = self._cell("a", 4, None)
        broken["ok"] = False
        assert find_inversions([self._cell("a", 1, "win"), broken]) == []


class TestScheduling:
    def test_cost_models_share_stages_but_not_place_jobs(self):
        from repro.cache.config import CacheConfig

        config = CacheConfig(size=8192, line_size=32, associativity=4)
        specs = [
            ExperimentSpec(
                workload="espresso", cache_config=config, cost_model=model
            )
            for model in ("direct", "assoc")
        ]
        graph, aggregates = plan_experiments(specs)
        kinds = {}
        for job in graph.topo_order():
            kinds.setdefault(job.kind, []).append(job)
        # One trace per input, one profile, one natural measure -- but a
        # place (and ccdp measure) job per cost model.
        assert len(kinds["trace"]) == 2
        assert len(kinds["profile"]) == 1
        assert len(kinds["place"]) == 2
        assert len(kinds["measure"]) == 3
        assert len(aggregates) == 2

    def test_geometries_share_traces_only(self):
        cells = build_grid(
            sizes=(8192,), associativities=(1, 4), workloads=("espresso",)
        )
        graph, _aggregates = plan_experiments([cell.spec() for cell in cells])
        kinds = {}
        for job in graph.topo_order():
            kinds.setdefault(job.kind, []).append(job)
        # The profiler reads only the cache size, so both associativities
        # share the traces and the profile; placements split per geometry.
        assert len(kinds["trace"]) == 2
        assert len(kinds["profile"]) == 1
        assert len(kinds["place"]) == 2
        assert len(kinds["measure"]) == 4

    def test_cache_sizes_split_profiles(self):
        cells = build_grid(
            sizes=(8192, 16384), associativities=(1,), workloads=("espresso",)
        )
        graph, _aggregates = plan_experiments([cell.spec() for cell in cells])
        kinds = {}
        for job in graph.topo_order():
            kinds.setdefault(job.kind, []).append(job)
        # The recency-queue threshold is twice the cache size.
        assert len(kinds["trace"]) == 2
        assert len(kinds["profile"]) == 2
        assert len(kinds["place"]) == 2

    def test_unknown_cost_model_rejected_at_plan_time(self):
        spec = ExperimentSpec(workload="espresso", cost_model="quantum")
        with pytest.raises(ValueError, match="unknown cost model"):
            plan_experiments([spec])


class TestRunSweep:
    def test_layout_stress_inverts_across_ways(self):
        cells = build_grid(
            sizes=(8192,),
            associativities=(1, 4),
            workloads=("layout-stress",),
        )
        payload = run_sweep(cells, jobs=1)
        assert payload["failed"] == 0
        assert "executed=" in payload["sched"]
        by_assoc = {
            cell["associativity"]: cell for cell in payload["cells"]
        }
        assert by_assoc[1]["verdict"] == "win"
        assert by_assoc[4]["verdict"] == "tie"
        assert by_assoc[1]["natural_miss_rate"] > 90.0
        assert by_assoc[4]["natural_miss_rate"] < 1.0
        assert len(payload["inversions"]) == 1
        rendered = render_sweep(payload)
        assert "verdict inversions" in rendered
        assert "layout-stress" in rendered
