"""Bench: the batched table pipeline and the raw cache kernel.

Runs :func:`repro.runtime.bench.run_bench` in quick mode (two programs)
under the benchmark timer and writes ``BENCH_pipeline.json`` so every PR
leaves a machine-readable perf trajectory next to the table artifacts.

Shapes asserted:

* the batched arm is the only arm, and it processed events;
* the raw kernel reports a positive throughput;
* no scalar-vs-batched ``speedup`` is reported (the per-event twins are
  test oracles, checked by the parity suites, not timed);
* the JSON report exists and round-trips with the headline numbers.
"""

from __future__ import annotations

import json
import os

from conftest import run_once

from repro.runtime.bench import run_bench

OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_pipeline.json")


def test_perf_pipeline(benchmark):
    result = run_once(benchmark, run_bench, quick=True, output=OUTPUT)

    assert set(result["arms"]) == {"batched"}
    batched = result["arms"]["batched"]
    assert batched["events"] > 0
    assert batched["total_s"] > 0.0
    assert result["kernel"]["batch_events_per_sec"] > 0.0
    assert "speedup" not in result
    assert "speedup" not in result["kernel"]

    with open(OUTPUT) as handle:
        report = json.load(handle)
    assert report["programs"] == result["programs"]
    assert set(report["arms"]) == {"batched"}
    assert "speedup" not in report
    assert set(report["arms"]["batched"]["tables_s"]) == {
        "table1",
        "table2",
        "table4",
    }
