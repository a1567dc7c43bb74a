"""Bench: the placement pass, per program.

Runs :func:`repro.runtime.bench.run_placement_bench` in quick mode (two
programs) under the benchmark timer and writes ``BENCH_placement.json``
so every PR leaves a machine-readable placement-pass trajectory next to
the pipeline report.

This is a smoke benchmark, not a gate: no threshold is asserted.  The
array arm is the only arm (the dict-based placer is a test oracle,
checked by the placement parity suites), and its ``per_program_s`` is
the per-program dispatch prior ``repro.sched.costs`` reads.  What the
smoke run asserts is the report shape.
"""

from __future__ import annotations

import json
import os

from conftest import run_once

from repro.runtime.bench import run_placement_bench

OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_placement.json")


def test_perf_placement(benchmark):
    result = run_once(
        benchmark, run_placement_bench, quick=True, rounds=1, output=OUTPUT
    )

    assert set(result["arms"]) == {"array"}
    per_program = result["arms"]["array"]["per_program_s"]
    assert set(per_program) == set(result["programs"])
    assert all(elapsed > 0.0 for elapsed in per_program.values())
    assert "speedup" not in result
    assert "parity" not in result

    with open(OUTPUT) as handle:
        report = json.load(handle)
    assert report["programs"] == result["programs"]
    assert set(report["arms"]) == {"array"}
    assert "speedup" not in report
    assert "parity" not in report
    assert report["cache"]["size"] == 8192
