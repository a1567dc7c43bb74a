"""Extension experiments beyond the paper's printed tables.

* :func:`run_overhead_report` — the paper's overhead argument made
  quantitative: does the custom allocator's per-malloc cost ever eat the
  miss savings?  (Section 7 promises zero overhead for the five
  non-heap programs; the heap programs pay per allocation.)
* :func:`run_hierarchy_study` — an L1-targeted placement measured on a
  two-level hierarchy: L1/L2 miss rates and the AMAT consequence.
* :func:`run_sampling_study` — time-sampled profiling (Section 5.2's
  suggested cheaper profiler) vs exhaustive profiling: how much of the
  placement win survives at each sampling ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.config import CacheConfig
from ..cache.hierarchy import DEFAULT_L2, HierarchyStats, TwoLevelCache
from ..core.algorithm import CCDPPlacer
from ..profiling.sampling import sampled_profile
from ..reporting.tables import render_table
from ..runtime.driver import measure
from ..runtime.overhead import OverheadEstimate, OverheadReport, estimate_overhead
from ..runtime.resolvers import CCDPResolver, NaturalResolver
from ..workloads import make_workload
from .common import (
    all_programs,
    cached_experiment,
    cached_stats,
    cached_trace,
    prefetch_experiments,
)


def run_overhead_report(
    programs: list[str] | None = None,
    miss_penalty: float = 20.0,
) -> OverheadReport:
    """Net cycles: miss savings minus custom-allocator overhead."""
    rows: list[OverheadEstimate] = []
    prefetch_experiments(programs or all_programs(), same_input=False)
    for name in programs or all_programs():
        workload = make_workload(name)
        result = cached_experiment(name, same_input=False)
        stats = cached_stats(name, workload.test_input)
        rows.append(
            estimate_overhead(
                program=name,
                stats=stats,
                heap_placed=workload.place_heap,
                original_misses=result.original.cache.misses,
                ccdp_misses=result.ccdp.cache.misses,
                miss_penalty=miss_penalty,
            )
        )
    return OverheadReport(rows=rows)


# -- two-level hierarchy -------------------------------------------------------


@dataclass(frozen=True)
class HierarchyRow:
    """One program's two-level results under both placements."""

    program: str
    natural: HierarchyStats
    ccdp: HierarchyStats


@dataclass
class HierarchyStudyResult:
    """The L1-targeted-placement-on-a-hierarchy study."""

    rows: list[HierarchyRow]

    def row_for(self, program: str) -> HierarchyRow:
        """Look up one program's row."""
        for row in self.rows:
            if row.program == program:
                return row
        raise KeyError(program)

    def render(self) -> str:
        """Render the hierarchy comparison."""
        headers = [
            "Program",
            "L1 nat",
            "L1 ccdp",
            "L2-global nat",
            "L2-global ccdp",
            "AMAT nat",
            "AMAT ccdp",
        ]
        body = [
            (
                row.program,
                row.natural.l1_miss_rate,
                row.ccdp.l1_miss_rate,
                row.natural.global_l2_miss_rate,
                row.ccdp.global_l2_miss_rate,
                row.natural.average_access_time(),
                row.ccdp.average_access_time(),
            )
            for row in self.rows
        ]
        return render_table(
            headers, body, title="Two-level hierarchy: L1-targeted placement"
        )


def run_hierarchy_study(
    programs: tuple[str, ...] = ("m88ksim", "fpppp", "compress", "mgrid"),
    l1_config: CacheConfig | None = None,
    l2_config: CacheConfig | None = None,
) -> HierarchyStudyResult:
    """Measure an L1-targeted placement on an L1+L2 hierarchy.

    Both placements replay the experiment's recorded test trace.
    """
    l1 = l1_config or CacheConfig()
    l2 = l2_config or DEFAULT_L2
    rows = []
    for name in programs:
        result = cached_experiment(name, same_input=False, cache_config=l1)
        trace = cached_trace(name, result.test_input)
        stats_by_placement = {}
        for label, resolver in (
            ("natural", NaturalResolver()),
            ("ccdp", CCDPResolver(result.placement)),
        ):
            hierarchy = TwoLevelCache(l1, l2)
            hierarchy.replay(trace, resolver)
            stats_by_placement[label] = hierarchy.stats
        rows.append(
            HierarchyRow(
                program=name,
                natural=stats_by_placement["natural"],
                ccdp=stats_by_placement["ccdp"],
            )
        )
    return HierarchyStudyResult(rows=rows)


# -- sampled profiling ---------------------------------------------------------


@dataclass(frozen=True)
class SamplingRow:
    """Placement quality at one sampling ratio."""

    ratio_label: str
    sampled_fraction: float
    ccdp_miss: float
    natural_miss: float

    @property
    def pct_reduction(self) -> float:
        """Reduction achieved by the sampled-profile placement."""
        if self.natural_miss == 0:
            return 0.0
        return 100.0 * (self.natural_miss - self.ccdp_miss) / self.natural_miss


@dataclass
class SamplingStudyResult:
    """The time-sampled-profiling study."""

    program: str
    rows: list[SamplingRow]

    def render(self) -> str:
        """Render the sampling sweep."""
        headers = ["Sampling", "Fraction", "CCDP miss", "Natural miss", "%Red"]
        body = [
            (
                row.ratio_label,
                row.sampled_fraction,
                row.ccdp_miss,
                row.natural_miss,
                row.pct_reduction,
            )
            for row in self.rows
        ]
        return render_table(
            headers,
            body,
            title=f"Time-sampled TRG profiling ({self.program})",
        )


def run_sampling_study(
    program: str = "m88ksim",
    patterns: tuple[tuple[int, int], ...] = (
        (10_000, 10_000),   # exhaustive
        (5_000, 10_000),    # 50%
        (2_000, 10_000),    # 20%
        (500, 10_000),      # 5%
    ),
    cache_config: CacheConfig | None = None,
) -> SamplingStudyResult:
    """Placement quality as the TRG sampling ratio shrinks.

    The training and test inputs are each recorded once for the study.
    """
    config = cache_config or CacheConfig()
    workload = make_workload(program)
    train = cached_trace(program, workload.train_input)
    test = cached_trace(program, workload.test_input)
    natural = measure(
        workload, workload.test_input, NaturalResolver(), config, trace=test
    ).cache.miss_rate
    rows = []
    for window, period in patterns:
        profile = sampled_profile(
            workload, window=window, period=period, cache_config=config, trace=train
        )
        placement = CCDPPlacer(
            profile, cache_config=config, place_heap=workload.place_heap
        ).place()
        miss = measure(
            workload, workload.test_input, CCDPResolver(placement), config, trace=test
        ).cache.miss_rate
        rows.append(
            SamplingRow(
                ratio_label=f"{window}/{period}",
                sampled_fraction=window / period,
                ccdp_miss=miss,
                natural_miss=natural,
            )
        )
    return SamplingStudyResult(program=program, rows=rows)
