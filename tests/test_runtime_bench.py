"""The table-pipeline bench: one cold and one warm arm read from the span tree.

``repro bench`` runs Tables 1, 2 and 4 twice over one temporary store.
Every number comes from each arm's telemetry registry, so the layer
sums, the residual, the scheduler summary and the store tallies must
agree with each other in the ways pinned here.
"""

from __future__ import annotations

import json

import pytest

from repro.runtime.bench import LAYERS, run_bench


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    output = tmp_path_factory.mktemp("bench") / "bench.json"
    return run_bench(programs=["deltablue"], output=str(output))


def test_arms_are_cold_then_warm(result):
    assert set(result["arms"]) == {"cold", "warm"}
    assert result["programs"] == ["deltablue"]
    assert result["jobs"] == 1
    assert result["peak_rss_mib"] > 0


def test_cold_arm_splits_into_the_four_layers(result):
    cold = result["arms"]["cold"]
    layers = cold["layers"]
    assert set(layers) == set(LAYERS)
    for kind in LAYERS:
        assert layers[kind]["jobs"] > 0, kind
        assert layers[kind]["s"] > 0.0, kind
        assert set(layers[kind]["per_program_s"]) == {"deltablue"}
        assert layers[kind]["per_program_s"]["deltablue"] == pytest.approx(
            layers[kind]["s"]
        )
    assert cold["sched"]["executed"] == sum(layers[kind]["jobs"] for kind in LAYERS)
    assert layers["measure"]["events"] > 0


def test_cold_residual_is_inside_the_wall(result):
    # At one job every sched.job and sched.probe span nests inside the
    # arm's root span.
    cold = result["arms"]["cold"]
    assert 0.0 <= cold["residual_s"] < cold["wall_s"]
    assert cold["probe_s"] > 0.0
    assert cold["residual_s"] == pytest.approx(
        cold["wall_s"]
        - sum(cold["layers"][kind]["s"] for kind in LAYERS)
        - cold["probe_s"]
    )


def test_cold_store_counts_one_miss_per_write(result):
    store = result["arms"]["cold"]["store"]
    assert store["writes"] > 0
    assert store["misses"] == store["writes"]
    assert store["corrupt"] == 0


def test_warm_arm_runs_nothing(result):
    warm = result["arms"]["warm"]
    assert all(warm["layers"][kind]["jobs"] == 0 for kind in LAYERS)
    assert warm["layers"]["measure"]["events"] == 0
    assert warm["probe_s"] > 0.0
    assert warm["residual_s"] == warm["wall_s"] - warm["probe_s"]
    assert warm["sched"]["executed"] == 0
    assert warm["sched"]["pruned"] > 0
    assert result["warm_executed"] == 0
    assert warm["store"]["misses"] == 0
    assert warm["store"]["writes"] == 0
    assert warm["store"]["hits"] > 0


def test_warm_probe_splits_into_store_steps(result):
    # The store spans nest inside the probe; assembly runs after it.
    warm = result["arms"]["warm"]
    split = warm["probe"]
    assert set(split) == {"read_s", "verify_s", "decode_s", "load_s"}
    assert all(seconds > 0.0 for seconds in split.values())
    assert sum(split.values()) <= warm["probe_s"]
    assert 0.0 < warm["assemble_s"] <= warm["residual_s"]


def test_warm_reproduces_cold(result):
    assert result["identical"] is True


def test_report_round_trips(result):
    with open(result["output"]) as handle:
        report = json.load(handle)
    assert report == {key: value for key, value in result.items() if key != "output"}
