"""Placement-quality study: the greedy heuristic vs random search.

The CCDP algorithm is a greedy heuristic (merge heaviest TRGselect edge
first, full offset scan per merge).  How close does it get to what *any*
placement could achieve?  Optimal data placement is NP-hard, but a
best-of-N random-placement search gives a cheap empirical yardstick: if
the heuristic beats hundreds of random layouts, the greedy order and
conflict metric are pulling their weight.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.config import CacheConfig
from ..reporting.tables import render_table
from ..runtime.driver import build_placement, measure
from ..runtime.resolvers import CCDPResolver, NaturalResolver, RandomResolver
from ..workloads import make_workload
from .common import cached_trace


@dataclass(frozen=True)
class QualityRow:
    """One program's greedy-vs-search comparison."""

    program: str
    natural_miss: float
    ccdp_miss: float
    random_best_miss: float
    random_mean_miss: float
    random_trials: int

    @property
    def beats_best_random(self) -> bool:
        """Whether the heuristic beats the best random layout found."""
        return self.ccdp_miss <= self.random_best_miss


@dataclass
class QualityStudyResult:
    """All rows plus a renderer."""

    rows: list[QualityRow]

    def row_for(self, program: str) -> QualityRow:
        """Look up one program's row."""
        for row in self.rows:
            if row.program == program:
                return row
        raise KeyError(program)

    def render(self) -> str:
        """Render the study table."""
        headers = [
            "Program",
            "Natural",
            "CCDP",
            "BestRandom",
            "MeanRandom",
            "Trials",
            "CCDP<=Best",
        ]
        body = [
            (
                row.program,
                row.natural_miss,
                row.ccdp_miss,
                row.random_best_miss,
                row.random_mean_miss,
                row.random_trials,
                row.beats_best_random,
            )
            for row in self.rows
        ]
        return render_table(
            headers, body, title="Placement quality: greedy vs random search"
        )


def run_quality_study(
    programs: tuple[str, ...] = ("m88ksim", "compress", "go"),
    trials: int = 25,
    cache_config: CacheConfig | None = None,
    seed_base: int = 90_000,
) -> QualityStudyResult:
    """Compare CCDP against a best-of-N random-placement search.

    N is kept modest because each trial is a full simulation; the bench
    asserts the heuristic beats the search's best layout, which already
    holds at small N for the conflict-driven programs.
    """
    config = cache_config or CacheConfig()
    rows = []
    for name in programs:
        workload = make_workload(name)
        _profile, placement = build_placement(
            workload,
            cache_config=config,
            trace=cached_trace(name, workload.train_input),
        )
        test = cached_trace(name, workload.test_input)

        def miss_rate(resolver) -> float:
            return measure(
                workload, workload.test_input, resolver, config, trace=test
            ).cache.miss_rate

        natural = miss_rate(NaturalResolver())
        ccdp = miss_rate(CCDPResolver(placement))
        random_rates = [
            miss_rate(RandomResolver(seed=seed_base + trial)) for trial in range(trials)
        ]
        rows.append(
            QualityRow(
                program=name,
                natural_miss=natural,
                ccdp_miss=ccdp,
                random_best_miss=min(random_rates),
                random_mean_miss=sum(random_rates) / len(random_rates),
                random_trials=trials,
            )
        )
    return QualityStudyResult(rows=rows)
