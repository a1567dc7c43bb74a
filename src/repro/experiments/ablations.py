"""Ablation studies for the design choices the paper calls out.

Each sweep isolates one knob of the CCDP pipeline and measures the
cross-input miss rate for a program:

* **queue threshold** — the TRG recency-queue bound; the paper uses 2x
  the cache size, "since our results have shown this to provide most of
  the important relationships" (Section 3.2).
* **chunk size** — the TRG placement granularity; 256 bytes is "large
  enough to keep the TRG within a manageable size, and small enough to
  allow large objects to be placed" (Section 3.2).
* **XOR name depth** — the number of return addresses folded into a heap
  name; Seidl & Zorn (and the paper) find 3-4 works and deeper folds
  over-specialize (Section 3.4 / 6).
* **popularity cutoff** — Phase 0's 99% cumulative-popularity split.
* **heap placement on/off** — the paper only applies heap placement to
  four programs; this ablation quantifies what it adds over
  stack/global/constant placement alone.

Every setting of a study profiles the same recorded training trace and
measures the same recorded test trace
(:func:`~repro.experiments.common.cached_trace`), so each (workload,
input) runs once per process.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.config import CacheConfig
from ..core.algorithm import CCDPPlacer
from ..reporting.tables import render_table
from ..runtime.driver import measure, profile_workload
from ..runtime.resolvers import CCDPResolver, NaturalResolver
from ..workloads import make_workload
from .common import cached_trace


@dataclass(frozen=True)
class AblationPoint:
    """One knob setting and its resulting miss rate."""

    setting: object
    miss_rate: float
    natural_miss_rate: float

    @property
    def pct_reduction(self) -> float:
        """Reduction relative to the natural placement."""
        if self.natural_miss_rate == 0:
            return 0.0
        return 100.0 * (self.natural_miss_rate - self.miss_rate) / (
            self.natural_miss_rate
        )


@dataclass
class AblationResult:
    """A labelled sweep over one knob."""

    program: str
    knob: str
    points: list[AblationPoint]

    def point_for(self, setting) -> AblationPoint:
        """Look up one sweep point."""
        for point in self.points:
            if point.setting == setting:
                return point
        raise KeyError(setting)

    def render(self) -> str:
        """Render the sweep table."""
        headers = [self.knob, "CCDP miss", "Natural miss", "%Red"]
        body = [
            (str(p.setting), p.miss_rate, p.natural_miss_rate, p.pct_reduction)
            for p in self.points
        ]
        return render_table(
            headers, body, title=f"Ablation: {self.knob} ({self.program})"
        )


def _measure_ccdp(
    workload,
    cache_config: CacheConfig,
    profiler_kwargs: dict,
    placer_kwargs: dict,
) -> float:
    profile = profile_workload(
        workload,
        workload.train_input,
        cache_config,
        trace=cached_trace(workload.name, workload.train_input),
        **profiler_kwargs,
    )
    placer = CCDPPlacer(
        profile,
        cache_config=cache_config,
        place_heap=placer_kwargs.pop("place_heap", workload.place_heap),
        **placer_kwargs,
    )
    placement = placer.place()
    result = measure(
        workload,
        workload.test_input,
        CCDPResolver(placement),
        cache_config,
        trace=cached_trace(workload.name, workload.test_input),
    )
    return result.cache.miss_rate


def _sweep(
    program: str,
    knob: str,
    settings: tuple,
    make_kwargs,
    cache_config: CacheConfig | None = None,
) -> AblationResult:
    config = cache_config or CacheConfig()
    workload = make_workload(program)
    natural = measure(
        workload,
        workload.test_input,
        NaturalResolver(),
        config,
        trace=cached_trace(program, workload.test_input),
    ).cache.miss_rate
    points = []
    for setting in settings:
        profiler_kwargs, placer_kwargs = make_kwargs(setting)
        miss = _measure_ccdp(workload, config, profiler_kwargs, placer_kwargs)
        points.append(
            AblationPoint(
                setting=setting, miss_rate=miss, natural_miss_rate=natural
            )
        )
    return AblationResult(program=program, knob=knob, points=points)


def sweep_queue_threshold(
    program: str = "m88ksim",
    thresholds: tuple[int, ...] = (2048, 8192, 16384, 65536),
) -> AblationResult:
    """Vary the TRG recency-queue byte bound (paper default: 16384)."""
    return _sweep(
        program,
        "queue-threshold",
        thresholds,
        lambda t: ({"queue_threshold": t}, {}),
    )


def sweep_chunk_size(
    program: str = "m88ksim",
    chunk_sizes: tuple[int, ...] = (64, 256, 1024, 4096),
) -> AblationResult:
    """Vary the TRG chunk granularity (paper default: 256 bytes)."""
    return _sweep(
        program,
        "chunk-size",
        chunk_sizes,
        lambda c: ({"chunk_size": c}, {}),
    )


def sweep_name_depth(
    program: str = "groff",
    depths: tuple[int, ...] = (1, 2, 4, 8),
) -> AblationResult:
    """Vary the XOR fold depth (paper default: 4)."""
    return _sweep(
        program,
        "xor-depth",
        depths,
        lambda d: ({"name_depth": d}, {}),
    )


@dataclass(frozen=True)
class NamingDepthRow:
    """Naming-quality metrics for one XOR fold depth."""

    depth: int
    names: int
    collided: int
    placeable: int
    miss_rate: float

    @property
    def collision_rate(self) -> float:
        """Fraction of names with concurrent-liveness collisions."""
        return self.collided / self.names if self.names else 0.0


@dataclass
class NamingDepthResult:
    """The Seidl & Zorn style depth study (paper Sections 3.4 and 6)."""

    program: str
    rows: list[NamingDepthRow]

    def row_for(self, depth: int) -> NamingDepthRow:
        """Look up one depth's row."""
        for row in self.rows:
            if row.depth == depth:
                return row
        raise KeyError(depth)

    def render(self) -> str:
        """Render the study table."""
        headers = ["depth", "names", "collided", "placeable", "CCDP miss"]
        body = [
            (row.depth, row.names, row.collided, row.placeable, row.miss_rate)
            for row in self.rows
        ]
        return render_table(
            headers, body, title=f"XOR naming depth study ({self.program})"
        )


def naming_depth_study(
    program: str = "espresso",
    depths: tuple[int, ...] = (1, 2, 4, 8),
    cache_config: CacheConfig | None = None,
) -> NamingDepthResult:
    """Measure how fold depth affects heap-name quality and miss rate.

    Depth 1 folds only the allocator wrapper's return address, collapsing
    every allocation onto one (collided) name; depths 2-4 distinguish the
    allocation contexts.  Mirrors the Seidl & Zorn finding the paper
    adopts: 3-4 call sites name well, deeper folds over-specialize.
    """
    from ..trace.events import Category

    config = cache_config or CacheConfig()
    workload = make_workload(program)
    train = cached_trace(program, workload.train_input)
    test = cached_trace(program, workload.test_input)
    rows = []
    for depth in depths:
        profile = profile_workload(
            workload, workload.train_input, config, name_depth=depth, trace=train
        )
        heap_entities = profile.entities_of(Category.HEAP)
        collided = sum(1 for e in heap_entities if e.collided)
        placer = CCDPPlacer(profile, cache_config=config, place_heap=True)
        placement = placer.place()
        placeable = sum(
            1
            for decision in placement.heap_table.values()
            if decision.preferred_offset is not None
        )
        miss = measure(
            workload, workload.test_input, CCDPResolver(placement), config, trace=test
        ).cache.miss_rate
        rows.append(
            NamingDepthRow(
                depth=depth,
                names=len(heap_entities),
                collided=collided,
                placeable=placeable,
                miss_rate=miss,
            )
        )
    return NamingDepthResult(program=program, rows=rows)


def sweep_popularity_cutoff(
    program: str = "go",
    cutoffs: tuple[float, ...] = (0.5, 0.9, 0.99, 1.0),
) -> AblationResult:
    """Vary Phase 0's cumulative-popularity split (paper default: 0.99)."""
    return _sweep(
        program,
        "popularity-cutoff",
        cutoffs,
        lambda c: ({}, {"popularity_cutoff": c}),
    )


@dataclass(frozen=True)
class HeapDisciplineRow:
    """Cache-vs-page numbers for one heap discipline."""

    discipline: str
    miss_rate: float
    total_pages: int
    working_set: float


@dataclass
class HeapDisciplineResult:
    """The paging/miss-rate tradeoff across heap allocator disciplines."""

    program: str
    rows: list[HeapDisciplineRow]

    def row_for(self, discipline: str) -> HeapDisciplineRow:
        """Look up one discipline's row."""
        for row in self.rows:
            if row.discipline == discipline:
                return row
        raise KeyError(discipline)

    def render(self) -> str:
        """Render the tradeoff table."""
        headers = ["Discipline", "Miss rate", "Pages", "WorkSet"]
        body = [
            (row.discipline, row.miss_rate, row.total_pages, row.working_set)
            for row in self.rows
        ]
        return render_table(
            headers,
            body,
            title=f"Heap discipline: cache vs page tradeoff ({self.program})",
        )


def sweep_heap_discipline(
    program: str = "espresso",
    cache_config: CacheConfig | None = None,
) -> HeapDisciplineResult:
    """Compare heap disciplines on both cache and paging metrics.

    Three configurations, after the paper's Table 5 discussion:

    * ``natural`` — declaration-order globals, first-fit heap (baseline);
    * ``ccdp`` — the paper's placement: temporal-fit binned custom heap
      (better cache behaviour, more pages);
    * ``ccdp-compact`` — the page-tuned variant the paper leaves as
      future work: CCDP's global/stack placement with a compact
      first-fit heap (page usage back at the natural baseline).
    """
    config = cache_config or CacheConfig()
    workload = make_workload(program)
    profile = profile_workload(
        workload,
        workload.train_input,
        config,
        trace=cached_trace(program, workload.train_input),
    )
    test = cached_trace(program, workload.test_input)
    placer = CCDPPlacer(
        profile, cache_config=config, place_heap=workload.place_heap
    )
    placement = placer.place()
    rows = []
    for discipline, resolver in (
        ("natural", NaturalResolver()),
        ("ccdp", CCDPResolver(placement)),
        ("ccdp-compact", CCDPResolver(placement, compact_heap=True)),
    ):
        result = measure(
            workload,
            workload.test_input,
            resolver,
            config,
            track_pages=True,
            trace=test,
        )
        rows.append(
            HeapDisciplineRow(
                discipline=discipline,
                miss_rate=result.cache.miss_rate,
                total_pages=result.paging.total_pages,
                working_set=result.paging.working_set,
            )
        )
    return HeapDisciplineResult(program=program, rows=rows)


def sweep_heap_placement(
    program: str = "groff",
) -> AblationResult:
    """Toggle heap placement on/off for a heap-placement program."""
    return _sweep(
        program,
        "heap-placement",
        (False, True),
        lambda on: ({}, {"place_heap": on}),
    )
