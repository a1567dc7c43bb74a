"""End-to-end contracts of the streaming adaptive engine.

The two acceptance anchors:

* **stationary** — a single-phase workload must trigger zero
  re-placements, keep the index on its in-place fast path, and measure
  bit-identically to the static pipeline under the same
  train-on-first-window placement;
* **phase-change** — a mid-run hot-set jump must trigger at least one
  re-placement and beat the static placement's miss count.
"""

from __future__ import annotations

import pytest

from repro.adaptive import WindowAggregator, run_adaptive, window_profile
from repro.adaptive import engine as engine_module
from repro.adaptive.bench import render_adaptive_bench, run_adaptive_bench
from repro.cache.config import CacheConfig
from repro.core.algorithm import CCDPPlacer
from repro.core.placement_engine import ArrayPlacementEngine
from repro.runtime.driver import measure_trace
from repro.runtime.resolvers import CCDPResolver
from repro.trace.buffer import record_trace
from repro.workloads.drift import (
    drift_workload,
    drift_workload_names,
    phase_change,
    stationary,
)
from tests.oracles import scalar_drift_score, scalar_fix_placed

CONFIG = CacheConfig()
WINDOW = 1024


@pytest.fixture(scope="module")
def stationary_trace():
    return record_trace(stationary(iterations=2500), "test")


@pytest.fixture(scope="module")
def phase_change_trace():
    return record_trace(phase_change(iterations=2500), "test")


@pytest.mark.parametrize("window", [512, 2048])
def test_drift_score_and_delta_replace_match_per_entity_fill(window, monkeypatch):
    """The one-gather span fill equals the per-entity loop at every check.

    Every drift score of the three drift traces equals
    :func:`tests.oracles.scalar_drift_score` as a float, and every
    re-placement gives the same placement map from either span fill.
    """
    real_score = engine_module._drift_score
    real_replace = engine_module.delta_replace
    scores: list[float] = []
    steps = []

    def checked_score(*args):
        score = real_score(*args)
        assert score == scalar_drift_score(*args)
        scores.append(score)
        return score

    def checked_replace(*args):
        step = real_replace(*args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ArrayPlacementEngine, "fix_placed", scalar_fix_placed)
            scalar = real_replace(*args)
        assert step.placement == scalar.placement
        assert list(step.placement.global_offsets.items()) == list(
            scalar.placement.global_offsets.items()
        )
        assert list(step.placement.heap_table.items()) == list(
            scalar.placement.heap_table.items()
        )
        assert (step.dirty_entities, step.scan_cost) == (
            scalar.dirty_entities,
            scalar.scan_cost,
        )
        steps.append(step)
        return step

    monkeypatch.setattr(engine_module, "_drift_score", checked_score)
    monkeypatch.setattr(engine_module, "delta_replace", checked_replace)
    for name in drift_workload_names():
        run_adaptive(record_trace(drift_workload(name), "test"), window_events=window)
    assert len(set(scores)) > 1
    assert steps


def test_never_policy_reproduces_static_pipeline(stationary_trace):
    """policy="never" is the static pipeline: same placement, same stats."""
    trace = stationary_trace
    result = run_adaptive(
        trace, CONFIG, place_heap=False, policy="never", window_events=WINDOW
    )
    static = CCDPPlacer(
        window_profile(trace, WINDOW, CONFIG), CONFIG, place_heap=False
    ).place()
    assert result.replacements == 0
    assert result.initial_placement == static
    assert result.final_placement == static
    measured = measure_trace(trace, CCDPResolver(static), CONFIG)
    assert result.stats.accesses == measured.cache.accesses
    assert result.stats.misses == measured.cache.misses


def test_stationary_drift_never_triggers(stationary_trace):
    """A correct detector stays quiet on a stationary stream."""
    trace = stationary_trace
    drift = run_adaptive(trace, CONFIG, place_heap=False, window_events=WINDOW)
    never = run_adaptive(
        trace, CONFIG, place_heap=False, policy="never", window_events=WINDOW
    )
    assert drift.replacements == 0
    assert drift.final_placement == drift.initial_placement
    assert drift.stats.accesses == never.stats.accesses
    assert drift.stats.misses == never.stats.misses
    # The sliding window keeps hitting the same edges, so the index
    # updates in place instead of rebuilding.
    assert drift.index_inplace_updates > 0


def test_phase_change_triggers_and_wins(phase_change_trace):
    """The hot-set jump is detected and re-placement pays off."""
    trace = phase_change_trace
    drift = run_adaptive(trace, CONFIG, place_heap=False, window_events=WINDOW)
    static = run_adaptive(
        trace, CONFIG, place_heap=False, policy="never", window_events=WINDOW
    )
    assert drift.replacements >= 1
    assert any(record.replaced for record in drift.windows)
    assert drift.stats.misses < static.stats.misses
    assert drift.final_placement != drift.initial_placement


def test_oracle_policy_replaces_every_check(phase_change_trace):
    result = run_adaptive(
        phase_change_trace,
        CONFIG,
        place_heap=False,
        policy="always",
        window_events=WINDOW,
    )
    checks = sum(1 for record in result.windows if record.drift_score is not None)
    assert result.replacements == checks


def test_window_records_cover_trace(phase_change_trace):
    trace = phase_change_trace
    result = run_adaptive(
        trace, CONFIG, place_heap=False, policy="never", window_events=WINDOW
    )
    assert result.windows[0].start == 0
    assert result.windows[-1].end == trace.events
    assert all(
        record.end - record.start <= WINDOW for record in result.windows
    )
    assert sum(record.accesses for record in result.windows) == (
        result.stats.accesses
    )
    assert sum(record.misses for record in result.windows) == result.stats.misses


def test_bad_policy_rejected(stationary_trace):
    with pytest.raises(ValueError):
        run_adaptive(stationary_trace, CONFIG, policy="sometimes")


def test_window_aggregator_retires_old_windows():
    key_a, key_b = ((1, 0), (2, 0)), ((2, 0), (3, 0))
    aggregator = WindowAggregator(history=2)
    assert aggregator.push({key_a: 4}) == {key_a: 4}
    assert aggregator.push({key_a: 4, key_b: 1}) == {key_a: 4, key_b: 1}
    # Third push retires the first window's weight.
    assert aggregator.push({key_b: 2}) == {key_a: -4, key_b: 2}
    # A recurring window cancels against the one it retires: no deltas,
    # which is what keeps the index fast path idle on stationary streams.
    assert aggregator.push({key_a: 4, key_b: 1}) == {}
    assert aggregator.depth == 2


def test_drift_workload_names_not_registered():
    """Drift scenarios stay out of the paper-table registry."""
    from repro.workloads import workload_names
    from repro.workloads.drift import drift_workload_names

    assert not set(drift_workload_names()) & set(workload_names())
    with pytest.raises(KeyError):
        drift_workload("nope")


def test_adaptive_bench_quick(tmp_path):
    output = tmp_path / "BENCH_adaptive.json"
    result = run_adaptive_bench(
        quick=True,
        output=str(output),
        window_sizes=(1024,),
        cadences=(1,),
    )
    assert output.exists()
    assert result["adaptive_beats_static"]
    assert result["stationary_zero_replacements"]
    assert result["stationary_identical"]
    text = render_adaptive_bench(result)
    assert "beats best static" in text
    assert "0 replacements" in text


def test_serve_adaptive_mode(tmp_path):
    from repro.serve.jobs import BadRequest, validate_request, _run_placement
    from repro.store import ArtifactStore

    store = ArtifactStore(tmp_path / "store")
    record = validate_request(
        {
            "kind": "placement",
            "workload": "compress",
            "mode": "adaptive",
            "window_events": 4096,
            "cadence": 2,
        },
        store,
    )
    assert record.params["mode"] == "adaptive"
    static = validate_request(
        {"kind": "placement", "workload": "compress"}, store
    )
    assert static.params["mode"] == "static"
    assert record.identity != static.identity
    with pytest.raises(BadRequest):
        validate_request(
            {"kind": "placement", "workload": "compress", "mode": "bogus"},
            store,
        )
    with pytest.raises(BadRequest):
        validate_request(
            {
                "kind": "placement",
                "workload": "compress",
                "mode": "adaptive",
                "window_events": 0,
            },
            store,
        )
    result = _run_placement(record, store)
    assert result["mode"] == "adaptive"
    assert result["windows"] > 0
    assert "placement" in result


def test_store_window_artifact(tmp_path):
    from repro.adaptive.engine import KIND_ADAPT_WINDOWS
    from repro.store import ArtifactStore, use_store

    trace = record_trace(stationary(iterations=800), "train")
    store = ArtifactStore(tmp_path / "store")
    with use_store(store):
        result = run_adaptive(
            trace, CONFIG, place_heap=False, window_events=WINDOW
        )
    entries = list((store.objects_dir / KIND_ADAPT_WINDOWS).rglob("*.json"))
    assert len(entries) == 1
    artifact = result.window_artifact()
    assert artifact["replacements"] == result.replacements
    assert len(artifact["windows"]) == len(result.windows)
