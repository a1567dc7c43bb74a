"""Bench: the job-graph executor, cold and warm.

Runs :func:`repro.runtime.bench.run_dag_bench` under the benchmark timer
and writes ``BENCH_dag.json``: the Table 2 + Table 4 pipeline planned as
one deduplicated job graph, run cold into a fresh store (dag-cold) and
rerun over that store (dag-warm).

Shapes asserted:

* both arms render byte-identical tables;
* the dag-cold arm deduplicates shared training stages before
  execution (``deduped > 0``, ``executed < total``);
* the dag-warm arm schedules zero stage executions (full warm prune);
* the JSON report exists and round-trips with the headline numbers.
"""

from __future__ import annotations

import json
import os

from conftest import run_once

from repro.runtime.bench import run_dag_bench

OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_dag.json")


def test_perf_dag(benchmark):
    result = run_once(benchmark, run_dag_bench, quick=True, output=OUTPUT)

    assert result["identical"], "both arms must render bit-identical tables"
    sched = result["arms"]["dag_cold"]["sched"]
    assert sched["deduped"] > 0
    assert sched["executed"] < sched["total"]
    assert result["warm_executed"] == 0
    assert result["arms"]["dag_warm"]["sched"]["pruned"] > 0

    with open(OUTPUT) as handle:
        report = json.load(handle)
    assert report["programs"] == result["programs"]
    assert report["identical"] is True
    assert set(report["arms"]) == {"dag_cold", "dag_warm"}
    assert report["job_seconds_by_kind"]
