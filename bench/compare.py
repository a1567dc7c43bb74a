"""Summaries of samples and the before/after verdict between two runs.

``python -m bench compare A.json B.json`` reads two reports written with
``python -m bench -o`` and gives each (workload, end-to-end metric) one
verdict, using the bounds in ``BENCHMARK.json``:

* ``within``     — B's median is no worse than A's by more than the bound;
* ``regressed``  — it is worse by more than the bound;
* ``unresolved`` — the spread of A's or B's samples (q3 - q1) is wider
  than the bound allows, so the two medians cannot be told apart, unless
  every sample of B is better than every sample of A.

Failed ops are compared too: any increase in the failed share regresses,
and so does a workload or metric of A that B lacks (its worker died).
Metrics in :data:`EXACT` are deterministic for a seed, so between two
reports of the same seed any worsening regresses; their bound in
``BENCHMARK.json`` only covers the spread between seeds.  The exit code is
1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics

from . import load_spec

#: Absolute slack added to a relative bound: a set-up time under 0.1 s
#: more than the baseline is never a regression.
ABSOLUTE_FLOOR = {"setup_s": 0.1}

#: Metrics that any worsening regresses when both reports share a seed.
EXACT = {"placed_miss_rate_pct"}

VERDICTS = ("within", "regressed", "unresolved")


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and count of a list of samples."""
    values = [float(value) for value in samples]
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def spread(summary: dict) -> float:
    """Quartile distance as a share of the median."""
    median = abs(summary["median"])
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def verdict(
    before: dict, after: dict, bound: float, better: str, floor: float = 0.0
) -> str:
    """Classify ``after`` against ``before`` for one metric.

    The allowed worsening is ``bound`` times the baseline median, or
    ``floor`` when that is larger; a quartile distance wider than the
    allowed worsening leaves the verdict unresolved.
    """
    sign = 1.0 if better == "lower" else -1.0
    allowed = max(bound * abs(before["median"]), floor)
    noise = max(s["q3"] - s["q1"] for s in (before, after))
    if noise > allowed:
        if all(
            sign * (b - a) < 0
            for a in before["samples"]
            for b in after["samples"]
        ):
            return "within"
        return "unresolved"
    if sign * (after["median"] - before["median"]) > allowed:
        return "regressed"
    return "within"


def _failed_frac(report: dict | None) -> float:
    if not report or not report["attempted"]:
        return 1.0
    return report["failed"] / report["attempted"]


def compare_reports(before: dict, after: dict, spec: dict) -> list[dict]:
    """One row per (workload, metric) of ``before``.

    A workload or metric missing from ``after`` gets a ``regressed`` row
    with ``after`` None.
    """
    same_seed = before.get("seed") == after.get("seed")
    rows = []
    for workload, old in before["workloads"].items():
        new = after["workloads"].get(workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in old["metrics"]:
                continue
            a = old["metrics"][name]
            b = new["metrics"].get(name) if new else None
            bound = 0.0 if same_seed and name in EXACT else metric["bound"]
            row = {
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "before": a["median"],
                "after": None,
                "spread": spread(a),
                "bound": bound,
                "verdict": "regressed",
            }
            if b is not None:
                row.update(
                    after=b["median"],
                    spread=max(spread(a), spread(b)),
                    verdict=verdict(
                        a, b, bound, metric["better"], ABSOLUTE_FLOOR.get(name, 0.0)
                    ),
                )
            rows.append(row)
        a_frac, b_frac = _failed_frac(old), _failed_frac(new)
        rows.append(
            {
                "workload": workload,
                "metric": "ops_failed_frac",
                "unit": "ratio",
                "before": a_frac,
                "after": b_frac,
                "spread": 0.0,
                "bound": 0.0,
                "verdict": "regressed" if b_frac > a_frac else "within",
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<21} {'before':>12} {'after':>12} "
        f"{'change':>8} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        if row["after"] is None:
            after, change = f"{'missing':>12}", f"{'':>8}"
        else:
            after = f"{row['after']:>12.6g}"
            change = (
                100.0 * (row["after"] - row["before"]) / abs(row["before"])
                if row["before"]
                else 0.0
            )
            change = f"{change:>+7.1f}%"
        lines.append(
            f"{row['workload']:<15} {row['metric']:<21} "
            f"{row['before']:>12.6g} {after} {change} "
            f"{100 * row['spread']:>6.1f}% {100 * row['bound']:>5.0f}%  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("before", help="baseline report (python -m bench -o)")
    parser.add_argument("after", help="report to judge against the baseline")
    args = parser.parse_args(argv)
    with open(args.before, encoding="utf-8") as handle:
        before = json.load(handle)
    with open(args.after, encoding="utf-8") as handle:
        after = json.load(handle)
    rows = compare_reports(before, after, load_spec())
    print(render(rows))
    counts = {name: sum(row["verdict"] == name for row in rows) for name in VERDICTS}
    print(" ".join(f"{name}={count}" for name, count in counts.items()))
    return 1 if counts["regressed"] else 0
