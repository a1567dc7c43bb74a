"""Section 5.2: placement across multiple cache configurations.

The paper discusses two questions we turn into an experiment:

1. *Target-geometry sensitivity* — a placement is computed once for a
   target cache; what happens when the executable runs on a machine with
   a different (smaller/larger/associative) cache?  The paper's guidance:
   pick the smallest geometry you want to perform well on; too small a
   target over-constrains the placement, too large a target ignores
   conflicts the small cache will have.

2. *Associative caches* — the paper extends placement to associativity by
   placing chunks into sets, and conjectures that a direct-mapped TRG
   already captures most of the benefit; we evaluate the direct-mapped
   placement on 2- and 4-way caches to test exactly that conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.config import CacheConfig
from ..reporting.tables import render_table
from ..runtime.driver import build_placement, measure
from ..runtime.resolvers import CCDPResolver, NaturalResolver
from ..workloads import make_workload
from .common import cached_trace

#: Geometries the sweep evaluates on (size, line, associativity).
DEFAULT_EVAL_GEOMETRIES = (
    CacheConfig(4096, 32, 1),
    CacheConfig(8192, 32, 1),
    CacheConfig(16384, 32, 1),
    CacheConfig(8192, 32, 2),
    CacheConfig(8192, 32, 4),
)


@dataclass(frozen=True)
class GeometryRow:
    """One (program, eval-geometry) measurement."""

    program: str
    target: str
    evaluated_on: str
    natural_miss: float
    ccdp_miss: float

    @property
    def pct_reduction(self) -> float:
        """Reduction CCDP achieves on this evaluation geometry."""
        if self.natural_miss == 0:
            return 0.0
        return 100.0 * (self.natural_miss - self.ccdp_miss) / self.natural_miss


@dataclass
class GeometrySweepResult:
    """All sweep rows plus a renderer."""

    rows: list[GeometryRow]

    def rows_for(self, program: str) -> list[GeometryRow]:
        """All rows of one program."""
        return [row for row in self.rows if row.program == program]

    def render(self) -> str:
        """Render the sweep table."""
        headers = ["Program", "Target", "Eval-on", "Natural", "CCDP", "%Red"]
        body = [
            (
                row.program,
                row.target,
                row.evaluated_on,
                row.natural_miss,
                row.ccdp_miss,
                row.pct_reduction,
            )
            for row in self.rows
        ]
        return render_table(
            headers, body, title="Section 5.2: placement vs cache geometry"
        )


@dataclass(frozen=True)
class AssociativePlacementRow:
    """Natural vs DM-targeted vs set-targeted placement on one geometry."""

    program: str
    evaluated_on: str
    natural_miss: float
    dm_placed_miss: float
    assoc_placed_miss: float


@dataclass
class AssociativePlacementResult:
    """The Section 5.2 associative-extension study."""

    rows: list[AssociativePlacementRow]

    def row_for(self, program: str) -> AssociativePlacementRow:
        """Look up one program's row."""
        for row in self.rows:
            if row.program == program:
                return row
        raise KeyError(program)

    def render(self) -> str:
        """Render the study table."""
        headers = ["Program", "Eval-on", "Natural", "DM-placed", "Set-placed"]
        body = [
            (
                row.program,
                row.evaluated_on,
                row.natural_miss,
                row.dm_placed_miss,
                row.assoc_placed_miss,
            )
            for row in self.rows
        ]
        return render_table(
            headers,
            body,
            title="Section 5.2 extension: placing chunks into sets",
        )


def run_associative_placement(
    programs: tuple[str, ...] = ("m88ksim", "fpppp", "compress"),
    geometry: CacheConfig | None = None,
) -> AssociativePlacementResult:
    """Evaluate the paper's associative-placement extension.

    The paper extends the algorithm to associative caches by "placing
    chunks into cache sets instead of cache lines" and conjectures that a
    direct-mapped placement "may provide enough information to achieve
    most of the potential".  This study measures, on an associative
    geometry: the natural placement, a placement targeted at the
    direct-mapped cache of the same size, and a placement targeted at the
    associative geometry itself (the set-granular extension).
    """
    geometry = geometry or CacheConfig(8192, 32, 2)
    direct = CacheConfig(geometry.size, geometry.line_size, 1)
    rows = []
    for name in programs:
        workload = make_workload(name)
        train = cached_trace(name, workload.train_input)
        test = cached_trace(name, workload.test_input)
        _p, dm_placement = build_placement(workload, cache_config=direct, trace=train)
        _p, set_placement = build_placement(
            workload, cache_config=geometry, trace=train
        )

        def miss_rate(resolver) -> float:
            return measure(
                workload, workload.test_input, resolver, geometry, trace=test
            ).cache.miss_rate

        natural = miss_rate(NaturalResolver())
        dm_placed = miss_rate(CCDPResolver(dm_placement))
        assoc_placed = miss_rate(CCDPResolver(set_placement))
        rows.append(
            AssociativePlacementRow(
                program=name,
                evaluated_on=geometry.describe(),
                natural_miss=natural,
                dm_placed_miss=dm_placed,
                assoc_placed_miss=assoc_placed,
            )
        )
    return AssociativePlacementResult(rows=rows)


def run_geometry_sweep(
    programs: tuple[str, ...] = ("m88ksim", "fpppp", "compress"),
    target: CacheConfig | None = None,
    eval_geometries: tuple[CacheConfig, ...] = DEFAULT_EVAL_GEOMETRIES,
) -> GeometrySweepResult:
    """Place for ``target``, evaluate on every geometry in the sweep.

    Uses the strongest conflict-driven programs by default — they make the
    geometry sensitivity most visible.
    """
    target = target or CacheConfig(8192, 32, 1)
    rows = []
    for name in programs:
        workload = make_workload(name)
        _profile, placement = build_placement(
            workload,
            cache_config=target,
            trace=cached_trace(name, workload.train_input),
        )
        test = cached_trace(name, workload.test_input)
        for geometry in eval_geometries:
            natural = measure(
                workload, workload.test_input, NaturalResolver(), geometry, trace=test
            )
            ccdp = measure(
                workload,
                workload.test_input,
                CCDPResolver(placement),
                geometry,
                trace=test,
            )
            rows.append(
                GeometryRow(
                    program=name,
                    target=target.describe(),
                    evaluated_on=geometry.describe(),
                    natural_miss=natural.cache.miss_rate,
                    ccdp_miss=ccdp.cache.miss_rate,
                )
            )
    return GeometrySweepResult(rows=rows)
