"""End-to-end pipeline benchmark: Tables 1, 2 and 4, cold then warm.

``repro bench`` runs the paper's evaluation pipeline (profile the
training input, place, simulate an 8 KB direct-mapped cache) the way
``repro tables table1 table2 table4`` does: Table 2 and Table 4 plan one
job graph, then the three tables render.  It runs twice over one
temporary artifact store — a *cold* arm into the empty store, then a
*warm* arm that must load every stage from it — and checks that both
arms produce the same tables and placements.

Each arm runs under its own :class:`~repro.obs.Telemetry` registry, and
every number in the report is read from that registry: wall-clock from
the arm's root span, per-layer jobs and seconds from the ``sched.job``
spans, warm-load probe seconds from the ``sched.probe`` spans (split by
the store spans inside them), experiment assembly from the
``sched.assemble`` spans, simulated events from the ``sim.events``
counter, store tallies from the ``store.*`` counters, and peak RSS from
the ``mem.peak_rss`` gauge.
The report is written as JSON, by default to ``BENCH_pipeline.json``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from typing import Callable, Iterator

from ..obs import telemetry as obs

#: Programs benchmarked by ``--quick`` (CI smoke) vs the full run.
QUICK_PROGRAMS = ("deltablue", "espresso")
DEFAULT_OUTPUT = "BENCH_pipeline.json"

#: Stage-job kinds, in pipeline order: the layers a run's time splits into.
LAYERS = ("trace", "profile", "place", "measure")

#: Store spans one warm load passes through: the file read, the
#: document and block decode with its length and digest check, and the
#: payload-to-object codec.
_PROBE_STEPS = ("store.read", "store.verify", "store.decode", "store.load")

#: Report keys of the registry's store counters.
_STORE_COUNTERS = {
    "hits": "store.hit",
    "misses": "store.miss",
    "writes": "store.write",
    "bytes_written": "store.bytes",
    "corrupt": "store.corrupt",
}


def _walk(spans: list[obs.Span]) -> Iterator[obs.Span]:
    """Every span of a forest, depth first."""
    for span in spans:
        yield span
        yield from _walk(span.children)


def _probe_split(spans: list[obs.Span]) -> dict[str, float]:
    """Seconds of each store step inside the ``sched.probe`` spans.

    ``store.verify`` nests in ``store.decode``, so ``decode_s`` is the
    decode spans' self time.
    """
    totals = dict.fromkeys(_PROBE_STEPS, 0.0)
    for probe in spans:
        if probe.name != "sched.probe":
            continue
        for span in _walk(probe.children):
            if span.name in totals:
                totals[span.name] += span.seconds
    return {
        "read_s": totals["store.read"],
        "verify_s": totals["store.verify"],
        "decode_s": totals["store.decode"] - totals["store.verify"],
        "load_s": totals["store.load"],
    }


def _layers(telemetry: obs.Telemetry) -> dict[str, dict]:
    """Jobs and busy seconds per stage kind, summed from ``sched.job`` spans.

    The whole tree is walked: a pooled run nests each job's span under
    a ``worker[i]`` wrapper rather than directly under the arm's root.
    """
    layers = {kind: {"jobs": 0, "s": 0.0, "per_program_s": {}} for kind in LAYERS}
    for span in _walk(telemetry.roots):
        if span.name != "sched.job":
            continue
        layer = layers[span.meta["kind"]]
        layer["jobs"] += 1
        layer["s"] += span.seconds
        per_program = layer["per_program_s"]
        workload = span.meta["workload"]
        per_program[workload] = per_program.get(workload, 0.0) + span.seconds
    layers["measure"]["events"] = telemetry.counters.get("sim.events", 0)
    return layers


def _run_arm(programs: list[str], jobs: int, root: str) -> tuple[dict, dict, float]:
    """One pass of the table pipeline over the store at ``root``.

    Returns ``(arm, outputs, peak_rss)``: the arm's report entry, what
    the two arms must agree on (rendered tables and placement digests),
    and the registry's peak-RSS gauge in bytes.
    """
    from ..experiments import run_table1, run_table2, run_table4
    from ..experiments.common import (
        cached_experiment,
        clear_cache,
        prefetch_experiment_batches,
        set_parallel_jobs,
    )
    from ..sched.executor import last_summary
    from ..store import ArtifactStore, use_store
    from ..store.stages import placement_digest

    clear_cache()
    set_parallel_jobs(jobs)
    telemetry = obs.Telemetry()
    with use_store(ArtifactStore(root)), obs.use(telemetry):
        with telemetry.span("bench.arm") as arm_span:
            prefetch_experiment_batches(
                [
                    {"programs": programs, "same_input": True},
                    {"programs": programs, "same_input": False},
                ],
                jobs=jobs,
            )
            tables = {
                "table1": run_table1(programs).render(),
                "table2": run_table2(programs).render(),
                "table4": run_table4(programs).render(),
            }
        placements = {
            name: placement_digest(cached_experiment(name, same_input=True).placement)
            for name in programs
        }
    summary = last_summary()
    layers = _layers(telemetry)
    spans = list(_walk(telemetry.roots))
    probe_s = sum(span.seconds for span in spans if span.name == "sched.probe")
    busy_s = sum(layers[kind]["s"] for kind in LAYERS) + probe_s
    arm = {
        "wall_s": arm_span.seconds,
        "probe_s": probe_s,
        "probe": _probe_split(spans),
        "assemble_s": sum(
            span.seconds for span in spans if span.name == "sched.assemble"
        ),
        "residual_s": arm_span.seconds - busy_s,
        "layers": layers,
        "sched": {
            "total": summary.total,
            "executed": summary.executed,
            "deduped": summary.deduped,
            "pruned": summary.pruned,
            "critical_path_s": summary.critical_path_seconds,
        },
        "store": {
            key: telemetry.counters.get(counter, 0)
            for key, counter in _STORE_COUNTERS.items()
        },
    }
    outputs = {"tables": tables, "placements": placements}
    return arm, outputs, telemetry.gauges.get(obs.PEAK_RSS_GAUGE, 0)


def run_bench(
    quick: bool = False,
    jobs: int = 1,
    output: str | None = DEFAULT_OUTPUT,
    programs: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Run the table pipeline cold then warm; write JSON.

    Returns the result dict (also written to ``output`` unless None).
    Per arm (``arms.cold``, ``arms.warm``):

    * ``wall_s`` — the arm's root span;
    * ``layers.{trace,profile,place,measure}`` — ``jobs``, busy seconds
      ``s`` and ``per_program_s`` summed from the ``sched.job`` spans,
      plus ``layers.measure.events`` from the ``sim.events`` counter;
    * ``probe_s`` — the ``sched.probe`` spans: the job graph's warm-load
      probes, which read and decode the stored artifacts;
    * ``probe`` — ``read_s``, ``verify_s``, ``decode_s`` and ``load_s``:
      the ``store.read``, ``store.verify``, ``store.decode`` (self) and
      ``store.load`` seconds inside the probes;
    * ``assemble_s`` — the ``sched.assemble`` spans: building each
      experiment from the run's artifacts;
    * ``residual_s`` — ``wall_s`` minus the layer and probe seconds:
      planning, Table 1 statistics and assembly (``assemble_s`` is part
      of it).  Above one job the workers' busy seconds overlap, so the
      residual can go negative;
    * ``sched`` — the job graph's summary; ``store`` — store tallies.

    Top level: ``identical`` (both arms rendered the same tables and
    placements), ``warm_executed`` (stage jobs the warm arm ran; 0 when
    the store is complete), ``peak_rss_mib`` and ``effective_cpus``.
    """
    from ..experiments.common import all_programs, clear_cache, set_parallel_jobs
    from ..sched.executor import _effective_cpus

    say = progress or (lambda _message: None)
    if programs is None:
        programs = list(QUICK_PROGRAMS) if quick else all_programs()
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    arms: dict[str, dict] = {}
    outputs: dict[str, dict] = {}
    peak_rss = 0.0
    try:
        for label in ("cold", "warm"):
            say(f"{label} arm...")
            arms[label], outputs[label], peak = _run_arm(programs, jobs, root)
            peak_rss = max(peak_rss, peak)
    finally:
        set_parallel_jobs(1)
        clear_cache()
        shutil.rmtree(root, ignore_errors=True)

    result: dict[str, object] = {
        "quick": quick,
        "programs": programs,
        "jobs": jobs,
        "effective_cpus": _effective_cpus(),
        "peak_rss_mib": peak_rss / 2**20,
        "identical": outputs["cold"] == outputs["warm"],
        "warm_executed": arms["warm"]["sched"]["executed"],
        "arms": arms,
    }
    if output:
        with open(output, "w") as handle:
            json.dump(result, handle, indent=2)
        result["output"] = output
    return result


def render_bench(result: dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_bench` result."""
    names = ("wall", *LAYERS, "probe", "residual")
    columns = "".join(f"{name:>9}" for name in names)
    lines = [
        f"table pipeline ({', '.join(result['programs'])}; "
        f"--jobs {result['jobs']}, {result['effective_cpus']} effective cpu(s)):",
        f"  {'arm':<5}{columns}  executed  store hits/misses/writes",
    ]
    for label, arm in result["arms"].items():
        seconds = (
            arm["wall_s"],
            *(arm["layers"][kind]["s"] for kind in LAYERS),
            arm["probe_s"],
            arm["residual_s"],
        )
        row = "".join(f"{value:8.2f}s" for value in seconds)
        store = arm["store"]
        lines.append(
            f"  {label:<5}{row}  {arm['sched']['executed']:>8}  "
            f"{store['hits']}/{store['misses']}/{store['writes']}"
        )
    for label, arm in result["arms"].items():
        split = arm["probe"]
        lines.append(
            f"  {label} probe: read {split['read_s']:.3f}s, verify "
            f"{split['verify_s']:.3f}s, decode {split['decode_s']:.3f}s, "
            f"load {split['load_s']:.3f}s; assemble {arm['assemble_s']:.3f}s"
        )
    measure = result["arms"]["cold"]["layers"]["measure"]
    lines.append(
        f"  cold measure: {measure['events']:,} events, "
        f"{measure['events'] / measure['s']:,.0f} ev/s"
    )
    verdict = "bit-identical" if result["identical"] else "MISMATCH"
    lines.append(
        f"  peak RSS {result['peak_rss_mib']:.1f} MiB; "
        f"warm executed {result['warm_executed']}; results {verdict}"
    )
    if "output" in result:
        lines.append(f"wrote {result['output']}")
    return "\n".join(lines)
