"""Structured run reports: one JSON document per instrumented run.

A :class:`RunReport` bundles everything the ``repro report`` CLI verb
emits for one profile→place→simulate run: the workload and cache
identity, per-placement simulation outcomes with full per-category miss
attribution, the test input's workload statistics, the telemetry
registry (span tree, counters, gauges), and the outcome of the
conservation invariant checks.  ``to_json()`` is the machine boundary;
``render()`` is the console tree view.

The report schema is versioned like the profile/placement files
(``kind`` + ``format`` envelope) so downstream tooling can validate what
it is reading.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..trace.events import Category
from . import invariants
from .telemetry import PEAK_RSS_GAUGE, Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.config import CacheConfig
    from ..cache.simulator import CacheStats
    from ..runtime.driver import ExperimentResult
    from ..trace.stats import WorkloadStats

#: Envelope version stamped into every report; bumped on breaking changes.
REPORT_FORMAT = 1


def cache_stats_summary(stats: "CacheStats") -> dict:
    """JSON-safe summary of one arm's :class:`CacheStats`.

    The per-category counters are additive: their sums equal the totals
    (checked by :mod:`repro.obs.invariants` on every instrumented run).
    """
    return {
        "accesses": stats.accesses,
        "misses": stats.misses,
        "miss_rate_pct": stats.miss_rate,
        "writebacks": stats.writebacks,
        "accesses_by_category": {
            category.name.lower(): stats.accesses_by_category[category]
            for category in Category
        },
        "misses_by_category": {
            category.name.lower(): stats.misses_by_category[category]
            for category in Category
        },
        "compulsory": stats.compulsory,
        "capacity": stats.capacity,
        "conflict": stats.conflict,
    }


def workload_stats_summary(stats: "WorkloadStats") -> dict:
    """JSON-safe summary of one input's :class:`WorkloadStats`."""
    return {
        "instructions": stats.instructions,
        "loads": stats.loads,
        "stores": stats.stores,
        "refs_by_category": {
            category.name.lower(): stats.refs_by_category[category]
            for category in Category
        },
        "alloc_count": stats.alloc_count,
        "free_count": stats.free_count,
    }


@dataclass
class RunReport:
    """Everything one instrumented pipeline run reports."""

    workload: str
    train_input: str
    test_input: str
    cache: dict
    simulation: dict[str, dict]
    miss_reduction_pct: float
    trace: dict = field(default_factory=dict)
    telemetry: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=dict)

    @classmethod
    def from_experiment(
        cls,
        result: "ExperimentResult",
        telemetry: Telemetry | None = None,
        test_stats: "WorkloadStats | None" = None,
    ) -> "RunReport":
        """Build a report from a finished experiment.

        Every simulation arm's conservation invariants are (re)checked
        here — a report never leaves this constructor with per-category
        counters that do not sum to their totals.
        """
        arms = {"original": result.original, "ccdp": result.ccdp}
        if result.random is not None:
            arms["random"] = result.random
        simulation = {}
        for label, measured in arms.items():
            invariants.check_cache_stats(measured.cache, context=label)
            simulation[label] = cache_stats_summary(measured.cache)
        trace = {}
        if test_stats is not None:
            invariants.check_workload_stats(test_stats, context="test-input")
            trace = workload_stats_summary(test_stats)
        config = result.placement.cache_config
        return cls(
            workload=result.workload,
            train_input=result.train_input,
            test_input=result.test_input,
            cache={
                "size": config.size,
                "line_size": config.line_size,
                "associativity": config.associativity,
            },
            simulation=simulation,
            miss_reduction_pct=result.miss_reduction_pct,
            trace=trace,
            telemetry=telemetry.to_dict() if telemetry is not None else {},
            invariants={
                "checked": True,
                "miss_attribution_conserved": True,
            },
        )

    def to_dict(self) -> dict:
        """JSON-safe encoding with the versioned envelope."""
        return {
            "kind": "ccdp-run-report",
            "format": REPORT_FORMAT,
            "workload": self.workload,
            "train_input": self.train_input,
            "test_input": self.test_input,
            "cache": dict(self.cache),
            "simulation": {k: dict(v) for k, v in self.simulation.items()},
            "miss_reduction_pct": self.miss_reduction_pct,
            "trace": dict(self.trace),
            "telemetry": self.telemetry,
            "invariants": dict(self.invariants),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Console view: header, simulation table, telemetry tree."""
        cache = self.cache
        lines = [
            f"run report: {self.workload} "
            f"(train={self.train_input} test={self.test_input} "
            f"cache={cache['size']}:{cache['line_size']}:"
            f"{cache['associativity']})"
        ]
        header = (
            f"  {'arm':<9} {'accesses':>10} {'misses':>9} {'D-Miss':>7}  "
            + "  ".join(f"{c.label:>6}" for c in Category)
        )
        lines.append(header)
        for label, summary in self.simulation.items():
            by_cat = summary["misses_by_category"]
            cats = "  ".join(
                f"{by_cat[c.name.lower()]:>6}" for c in Category
            )
            lines.append(
                f"  {label:<9} {summary['accesses']:>10} "
                f"{summary['misses']:>9} {summary['miss_rate_pct']:6.2f}%  "
                f"{cats}"
            )
        lines.append(f"  miss reduction: {self.miss_reduction_pct:.1f}%")
        conserved = self.invariants.get("miss_attribution_conserved")
        lines.append(
            "  miss attribution: per-category sums == totals "
            + ("(OK)" if conserved else "(NOT CHECKED)")
        )
        peak = self.telemetry.get("gauges", {}).get(PEAK_RSS_GAUGE)
        if peak:
            lines.append(
                f"  peak RSS: {peak / (1 << 20):,.1f} MiB "
                "(max across run and merged workers)"
            )
        sched = {
            name.split(".", 1)[1]: value
            for name, value in self.telemetry.get("counters", {}).items()
            if name.startswith("sched.")
        }
        if sched:
            critical_path = self.telemetry.get("gauges", {}).get(
                "sched.critical_path_seconds"
            )
            parts = [
                f"{name}={value}" for name, value in sorted(sched.items())
            ]
            if critical_path is not None:
                parts.append(f"critical_path={critical_path:.2f}s")
            lines.append("  scheduler: " + " ".join(parts))
        if self.telemetry:
            registry = Telemetry()
            registry.counters = dict(self.telemetry.get("counters", {}))
            registry.gauges = dict(self.telemetry.get("gauges", {}))
            from .telemetry import Span

            registry.roots = [
                Span.from_dict(raw) for raw in self.telemetry.get("spans", [])
            ]
            lines.append(registry.render())
        return "\n".join(lines)


def run_report(
    workload_name: str,
    same_input: bool = False,
    include_random: bool = False,
    classify: bool = False,
    cache_config: "CacheConfig | None" = None,
) -> RunReport:
    """Run one workload's full pipeline under telemetry and report it.

    After the run, the test input is recorded once more for the workload
    statistics section, whose reference totals reconcile with the
    simulators' access counters (each reference touches at least one
    cache block); a fully-warm store reassembles the experiment without
    recording anything, and the section survives that too.
    """
    from ..runtime.driver import run_experiment
    from ..trace.buffer import record_trace
    from ..workloads import make_workload
    from .telemetry import use

    workload = make_workload(workload_name)
    telemetry = Telemetry()
    with use(telemetry):
        with telemetry.span("run", workload=workload_name):
            result = run_experiment(
                workload,
                test_input=workload.train_input if same_input else None,
                cache_config=cache_config,
                include_random=include_random,
                classify=classify,
            )
            with telemetry.span("trace.record", input=result.test_input):
                test_trace = record_trace(workload, result.test_input)
        test_stats = test_trace.stats()
    return RunReport.from_experiment(result, telemetry, test_stats=test_stats)
