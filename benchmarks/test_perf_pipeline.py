"""Bench: the table pipeline, cold into a fresh store and then warm.

Runs :func:`repro.runtime.bench.run_bench` in quick mode (two programs)
under the benchmark timer and writes ``bench_pipeline_quick.json`` (not
the committed nine-program ``BENCH_pipeline.json``): Tables 1, 2 and 4
run as one job graph into an empty temporary store (cold), then again
over that store (warm).

Shapes asserted:

* both arms render byte-identical tables and placements;
* the cold arm deduplicates shared training stages before execution
  (``deduped > 0``, ``executed < total``) and computes and persists
  (store misses and writes);
* the warm arm schedules zero stage executions (every job warm-pruned)
  and only hits the store;
* the warm arm is at least 5x faster end-to-end than the cold arm;
* the JSON report exists and round-trips.
"""

from __future__ import annotations

import json
import os

from conftest import run_once

from repro.runtime.bench import run_bench

OUTPUT = os.path.join(os.path.dirname(__file__), "..", "bench_pipeline_quick.json")


def test_perf_pipeline(benchmark):
    result = run_once(benchmark, run_bench, quick=True, output=OUTPUT)

    assert result["identical"], "warm results must be bit-identical to cold"
    cold = result["arms"]["cold"]
    warm = result["arms"]["warm"]
    assert cold["sched"]["deduped"] > 0
    assert cold["sched"]["executed"] < cold["sched"]["total"]
    assert cold["store"]["writes"] > 0
    assert cold["store"]["misses"] > 0
    assert warm["sched"]["executed"] == 0
    assert result["warm_executed"] == 0
    assert warm["sched"]["pruned"] > 0
    assert warm["store"]["misses"] == 0
    assert warm["store"]["writes"] == 0
    assert warm["store"]["hits"] > 0
    assert cold["wall_s"] >= 5.0 * warm["wall_s"]

    with open(OUTPUT) as handle:
        report = json.load(handle)
    assert report == {key: value for key, value in result.items() if key != "output"}
