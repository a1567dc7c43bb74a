"""Input-sensitivity study: one placement, every unseen input.

Table 4 shows one train/test pair per program; this study generalizes
it: place once on the training input, then measure the reduction on
*every other* input of the workload (each differing in seed and scale).
The paper's claim — CCDP "consistently improves data cache performance
across all experiments, even when profiling inputs different from
analyzed inputs" — becomes a per-input matrix instead of a single
column.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.config import CacheConfig
from ..reporting.tables import render_table
from ..runtime.driver import build_placement, measure
from ..runtime.resolvers import CCDPResolver, NaturalResolver
from ..workloads import make_workload
from .common import cached_trace


@dataclass(frozen=True)
class SensitivityCell:
    """One (program, evaluation input) measurement."""

    program: str
    input_name: str
    trained_on: bool
    natural_miss: float
    ccdp_miss: float

    @property
    def pct_reduction(self) -> float:
        """Reduction on this input."""
        if self.natural_miss == 0:
            return 0.0
        return 100.0 * (self.natural_miss - self.ccdp_miss) / self.natural_miss


@dataclass
class SensitivityResult:
    """All cells plus a renderer."""

    cells: list[SensitivityCell]

    def cells_for(self, program: str) -> list[SensitivityCell]:
        """All evaluation inputs of one program."""
        return [cell for cell in self.cells if cell.program == program]

    def unseen_cells(self) -> list[SensitivityCell]:
        """Only the inputs the placement was not trained on."""
        return [cell for cell in self.cells if not cell.trained_on]

    def render(self) -> str:
        """Render the sensitivity matrix."""
        headers = ["Program", "Input", "Trained", "Natural", "CCDP", "%Red"]
        body = [
            (
                cell.program,
                cell.input_name,
                cell.trained_on,
                cell.natural_miss,
                cell.ccdp_miss,
                cell.pct_reduction,
            )
            for cell in self.cells
        ]
        return render_table(
            headers, body, title="Input sensitivity: one placement, all inputs"
        )


def run_input_sensitivity(
    programs: tuple[str, ...] = (
        "m88ksim",
        "compress",
        "go",
        "groff",
        "mgrid",
    ),
    cache_config: CacheConfig | None = None,
) -> SensitivityResult:
    """Place each program once, evaluate on every input it defines."""
    config = cache_config or CacheConfig()
    cells = []
    for name in programs:
        workload = make_workload(name)
        _profile, placement = build_placement(
            workload,
            cache_config=config,
            trace=cached_trace(name, workload.train_input),
        )
        for input_name in workload.inputs:
            trace = cached_trace(name, input_name)
            natural = measure(
                workload, input_name, NaturalResolver(), config, trace=trace
            ).cache.miss_rate
            ccdp = measure(
                workload, input_name, CCDPResolver(placement), config, trace=trace
            ).cache.miss_rate
            cells.append(
                SensitivityCell(
                    program=name,
                    input_name=input_name,
                    trained_on=(input_name == workload.train_input),
                    natural_miss=natural,
                    ccdp_miss=ccdp,
                )
            )
    return SensitivityResult(cells=cells)
