"""Golden pins for the paper tables.

Tables 1 and 3 are pure functions of the deterministic workload traces,
so their numbers should never drift unless the workload generators, the
statistics collector, or the table experiments deliberately change.
This suite pins the full row contents for the two fastest benchmarks
(``go``, ``mgrid``) to JSON fixtures under ``tests/goldens/``.  The
miss-rate results depend on the placement and the address resolvers
too: Tables 2 and 4 and the random-vs-natural comparison are pinned for
all nine programs, averages included.

When an intentional change shifts the numbers, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden_tables.py --update-goldens

and review the fixture diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.missrates import MissRateRow
from repro.experiments import (
    run_random_vs_natural,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The two quickest benchmarks, chosen so the pins stay cheap while still
#: covering both a placement success story (go) and the paper's canonical
#: failure case (mgrid: one huge array receiving ~all references).
PROGRAMS = ("go", "mgrid")


def _table1_snapshot(program: str) -> dict:
    result = run_table1([program])
    return {
        "table": 1,
        "program": program,
        "rows": [dataclasses.asdict(row) for row in result.rows],
    }


def _table3_snapshot(program: str) -> dict:
    result = run_table3([program])
    row = result.rows[program]
    return {
        "table": 3,
        "program": program,
        "static_objects": row.static_objects,
        "objects_per_bucket": row.objects_per_bucket,
        "pct_refs_per_bucket": row.pct_refs_per_bucket,
    }


def _miss_rate_row(row: MissRateRow) -> dict:
    return {**dataclasses.asdict(row), "pct_reduction": row.pct_reduction}


def _miss_rate_snapshot(table: int, result) -> dict:
    return {
        "table": table,
        "rows": [_miss_rate_row(row) for row in result.rows],
        "average": _miss_rate_row(result.average),
        "average_reduction": result.average_reduction,
        "skipped": result.skipped,
    }


def _random_vs_natural_snapshot(result) -> dict:
    return {
        "rows": [
            {**dataclasses.asdict(row), "pct_increase": row.pct_increase}
            for row in result.rows
        ],
        "mean_increase": result.mean_increase,
    }


@pytest.fixture(scope="module")
def miss_rate_results():
    """Tables 2 and 4 and random vs natural, nine programs, run once."""
    return {
        "table2": _miss_rate_snapshot(2, run_table2()),
        "table4": _miss_rate_snapshot(4, run_table4()),
        "random_vs_natural": _random_vs_natural_snapshot(run_random_vs_natural()),
    }


def _check_against_golden(request, name: str, snapshot: dict) -> None:
    """Compare ``snapshot`` to the fixture, or rewrite it under the flag."""
    path = GOLDEN_DIR / f"{name}.json"
    normalized = json.loads(json.dumps(snapshot))
    if request.config.getoption("--update-goldens"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(normalized, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote golden {path.name}")
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; run with --update-goldens to create it"
        )
    golden = json.loads(path.read_text())
    assert normalized == golden, (
        f"{name} drifted from its golden pin; if the change is intentional, "
        f"regenerate with --update-goldens and review the fixture diff"
    )


@pytest.mark.parametrize("program", PROGRAMS)
def test_table1_matches_golden(request, program):
    _check_against_golden(request, f"table1_{program}", _table1_snapshot(program))


@pytest.mark.parametrize("program", PROGRAMS)
def test_table3_matches_golden(request, program):
    _check_against_golden(request, f"table3_{program}", _table3_snapshot(program))


@pytest.mark.parametrize("program", PROGRAMS)
def test_table1_rows_are_self_consistent(program):
    """Sanity independent of the pins: category shares sum to ~100%."""
    for row in run_table1([program]).rows:
        categories = row.pct_stack + row.pct_global + row.pct_heap + row.pct_const
        assert categories == pytest.approx(100.0, abs=0.1)
        assert 0 < row.pct_loads + row.pct_stores <= 100.0
        assert row.instructions > 0


@pytest.mark.parametrize("name", ["table2", "table4", "random_vs_natural"])
def test_miss_rates_match_golden(request, miss_rate_results, name):
    _check_against_golden(request, name, miss_rate_results[name])


def test_random_placement_does_worse_than_natural(miss_rate_results):
    """Section 5.1: random placement raises most programs' miss rates."""
    rows = miss_rate_results["random_vs_natural"]["rows"]
    assert len(rows) == 9
    assert sum(row["random_miss"] > row["natural_miss"] for row in rows) >= 6
