"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload has the same life cycle, driven by :mod:`bench.worker`:

* ``setup()`` makes the inputs from the seed (repeated; the last one is
  kept);
* ``prepare()`` does the one-off rest of set-up (priming the
  ``paper-warm`` store), and returns the seconds and reference units of
  the part of it timed like a pass, if any;
* ``before_pass()`` does the untimed preparation every pass needs: drop
  the in-process memo caches, collect garbage, install a fresh store for
  cold workloads;
* ``run_pass()`` is the timed region and calls only public ``repro``
  functions;
* ``after_pass(output)`` checks the outputs, untimed, and returns a
  :class:`PassResult`.

One *op* is one table row (per table and program), one sweep cell or one
adaptive run.  A failed check marks every op it covers as failed.

Seed 0 runs the pinned inputs.  Any other seed registers clones of the
workloads whose inputs draw from shifted RNG seeds, so the code under
test sees new traces through the same public entry points.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import inspect
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import astuple, dataclass, field
from pathlib import Path

from repro.adaptive import run_adaptive
from repro.experiments import (
    all_programs,
    cached_experiment,
    cached_natural_run,
    cached_random_run,
    clear_cache,
    run_random_vs_natural,
    run_table1,
    run_table2,
    run_table4,
)
from repro.obs.invariants import InvariantError
from repro.sched import executor as sched_executor
from repro.store import ArtifactStore, set_store
from repro.store.artifacts import cache_stats_to_dict
from repro.store.keys import trace_fingerprint
from repro.store.stages import known_fingerprint
from repro.sweep import build_grid, run_sweep
from repro.sweep.grid import DEFAULT_WORKLOADS as SWEEP_WORKLOADS
from repro.trace.buffer import record_trace
from repro.workloads import (
    WorkloadInput,
    drift_workload,
    drift_workload_names,
    make_workload,
    register_family,
)

from . import ROOT, reference
from .tracer import patch

#: Distance between the RNG seeds of consecutive benchmark seeds.
SEED_STRIDE = 7919

#: Inner-loop trips of each drift scenario (114k events on the test input).
DRIFT_ITERATIONS = 40000

#: Adaptive window sizes, in events.
DRIFT_WINDOWS = (512, 2048)

#: The sweep grid: the paper's 8 KB size at 1, 2 and 4 ways.
SWEEP_SIZES = (8192,)
SWEEP_ASSOCIATIVITIES = (1, 2, 4)

#: Seeds ``repro tables random`` averages over (the harness default).
RANDOM_SEEDS = inspect.signature(run_random_vs_natural).parameters["seeds"].default


def digest(value) -> str:
    """Short content digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def stats_digest(stats) -> str:
    """Digest of every counter of a :class:`~repro.cache.CacheStats`."""
    return digest(cache_stats_to_dict(stats))


def _shift_inputs(workload, seed: int):
    workload.inputs = {
        key: WorkloadInput(spec.name, spec.seed + SEED_STRIDE * seed, spec.scale)
        for key, spec in workload.inputs.items()
    }
    return workload


def _clone(name: str, seed: int):
    workload = make_workload(name)
    workload.name = f"{name}-s{seed}"
    return _shift_inputs(workload, seed)


def seeded_names(names, seed: int) -> list[str]:
    """Workload names to run at ``seed``: the pinned ones at 0, else clones."""
    if seed == 0:
        return list(names)
    clones = {f"{name}-s{seed}": functools.partial(_clone, name, seed)
              for name in names}
    register_family(clones)
    return list(clones)


def drift_input(name: str, seed: int):
    """One drift scenario with its inputs' RNG seeds shifted by ``seed``.

    The drift generators draw nothing from their RNG, so the traces are
    the same at every seed.  That is kept on purpose: stretching the run
    instead moves the phase boundaries against the window grid and swings
    the adaptive miss rate by a quarter between seeds.
    """
    return _shift_inputs(drift_workload(name, iterations=DRIFT_ITERATIONS), seed)


@dataclass
class PassResult:
    """Checks of one pass: its ops, failures, pins and measured extras."""

    ops: list[str]
    failures: dict[str, list[str]] = field(default_factory=dict)
    placed_miss_rate_pct: float = 0.0
    #: (group, key, value, ops): digests compared with the expected file.
    pins: list[tuple[str, str, str, tuple[str, ...]]] = field(
        default_factory=list
    )
    extras: dict = field(default_factory=dict)

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, []).append(reason)

    def pin(self, group: str, key: str, value, *ops: str) -> None:
        self.pins.append((group, key, value, ops))

    def observed(self) -> dict:
        """Pinned values as ``{group: {key: value}}``."""
        groups: dict[str, dict] = {}
        for group, key, value, _ops in self.pins:
            groups.setdefault(group, {})[key] = value
        return groups

    def check_expected(self, expected: dict) -> None:
        """Fail the ops of every pin that differs from ``expected``."""
        for group, key, value, ops in self.pins:
            pinned = expected.get(group, {}).get(key)
            if pinned != value:
                for op in ops:
                    self.fail(op, f"{group} {key}: {value} != pinned {pinned}")


def check_arms(result: PassResult, op: str, natural, placed) -> None:
    """Conservation on every arm; placed arms count the natural accesses."""
    for stats in (natural, *placed):
        try:
            stats.check_conservation()
        except InvariantError as exc:
            result.fail(op, f"conservation: {exc}")
    for stats in placed:
        if stats.accesses != natural.accesses:
            result.fail(
                op,
                f"placed arm counts {stats.accesses} accesses, "
                f"natural {natural.accesses}",
            )


def tree_bytes(root: Path) -> int:
    """Bytes of every file under ``root``."""
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


class _StoreWorkload:
    """Shared store handling: a fresh store per pass or one primed store."""

    section = ""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.store: ArtifactStore | None = None
        self._bytes_before = 0

    def prepare(self) -> tuple[float, float] | None:
        return None

    def fresh_store(self) -> None:
        self.drop_store()
        self.store = ArtifactStore(tempfile.mkdtemp(prefix="store-", dir=self.tmp))

    def drop_store(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
            self.store = None

    def before_pass(self) -> None:
        clear_cache()
        gc.collect()
        set_store(self.store)
        self._bytes_before = tree_bytes(self.store.root)

    def bytes_written(self) -> int:
        return tree_bytes(self.store.root) - self._bytes_before

    def close(self) -> None:
        set_store(None)
        self.drop_store()


class PaperWorkload(_StoreWorkload):
    """Tables 1, 2 and 4 and random-vs-natural for the nine programs."""

    section = "paper"

    def __init__(self, seed: int, tmp: Path, warm: bool):
        super().__init__(seed, tmp)
        self.warm = warm
        self.programs: list[str] = []
        self.primed: str | None = None

    def setup(self) -> None:
        self.programs = seeded_names(all_programs(), self.seed)

    def prepare(self) -> tuple[float, float] | None:
        if not self.warm:
            return None
        # A cold pass in a process of its own (bench.prime) fills the store
        # every timed pass then reads, so the peak RSS of this process
        # covers only the warm passes.
        self.fresh_store()
        primed = subprocess.run(
            [sys.executable, "-m", "bench.prime", str(self.seed),
             str(self.store.root)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        self.primed, elapsed, wall_ref = primed.stdout.split()[-3:]
        return float(elapsed), float(wall_ref)

    def before_pass(self) -> None:
        if not self.warm:
            self.fresh_store()
        super().before_pass()

    def run_pass(self):
        tables = (
            run_table1(self.programs),
            run_table2(self.programs),
            run_table4(self.programs),
            run_random_vs_natural(self.programs),
        )
        return tables, [table.render() for table in tables]

    @staticmethod
    def output_digest(output) -> str:
        tables, rendered = output
        return digest([repr(table.rows) for table in tables] + rendered)

    def ops(self) -> list[str]:
        return [
            f"{table}/{name}"
            for table in ("table1", "table2", "table4", "random")
            for name in self.programs
        ]

    def after_pass(self, output) -> PassResult:
        (table1, table2, table4, random_rows), _rendered = output
        programs = self.programs
        result = PassResult(ops=self.ops())
        for name in programs:
            op = f"table1/{name}"
            rows = [row for row in table1.rows if row.program == name]
            if len(rows) != 2:
                result.fail(op, f"{len(rows)} Table 1 rows")
            result.pin("table1", name, digest([astuple(row) for row in rows]), op)
            workload = make_workload(name)
            for input_name in (workload.train_input, workload.test_input):
                fingerprint = known_fingerprint(self.store, name, input_name)
                result.pin("traces", f"{name}/{input_name}", fingerprint, op)

        placed = []
        for table, rows, same_input in (
            ("table2", table2, True),
            ("table4", table4, False),
        ):
            for name in rows.skipped:
                result.fail(f"{table}/{name}", "row skipped")
            for name in programs:
                if name in rows.skipped:
                    continue
                op = f"{table}/{name}"
                experiment = cached_experiment(name, same_input=same_input)
                check_arms(
                    result, op, experiment.original.cache, [experiment.ccdp.cache]
                )
                result.pin("natural", op, stats_digest(experiment.original.cache), op)
                placed.append(experiment.ccdp.cache.miss_rate)

        for name in programs:
            op = f"random/{name}"
            natural = cached_natural_run(name).cache
            randoms = [cached_random_run(name, seed=s).cache for s in RANDOM_SEEDS]
            check_arms(result, op, natural, randoms)
            result.pin("natural", op, stats_digest(natural), op)

        if self.seed == 0:
            self._check_paper_shape(result, table2, random_rows)
        if self.warm and self.output_digest(output) != self.primed:
            for op in result.ops:
                result.fail(op, "warm output differs from the priming pass")
        result.placed_miss_rate_pct = sum(placed) / len(placed) if placed else 0.0
        result.extras["bytes_written"] = self.bytes_written()
        set_store(None)
        return result

    @staticmethod
    def _check_paper_shape(result: PassResult, table2, random_rows) -> None:
        """The paper's claims on the pinned inputs."""
        m88ksim = table2.row_for("m88ksim").pct_reduction
        if not m88ksim > 40.0:
            result.fail("table2/m88ksim", f"reduction {m88ksim:.2f}% <= 40%")
        mgrid = table2.row_for("mgrid").pct_reduction
        if not abs(mgrid) <= 1.0:
            result.fail("table2/mgrid", f"reduction {mgrid:.2f}% not within 1 pp of 0")
        rows = random_rows.rows
        natural = sum(row.natural_miss for row in rows) / len(rows)
        random = sum(row.random_miss for row in rows) / len(rows)
        if not random > natural:
            for row in rows:
                result.fail(
                    f"random/{row.program}",
                    f"mean random miss rate {random:.3f}% <= natural {natural:.3f}%",
                )


def prime(seed: int, root: Path) -> tuple[str, float, float]:
    """One cold paper pass into the store at ``root``.

    Returns the pass's output digest, the seconds its stopwatch ran
    (reference blocks included) and the pass's time in reference units,
    measured like a timed pass.
    """
    workload = PaperWorkload(seed, root.parent, warm=True)
    workload.programs = seeded_names(all_programs(), seed)
    workload.store = ArtifactStore(root)
    workload.before_pass()
    watch = reference.Stopwatch(pause=True)
    watch.start()
    try:
        output = workload.run_pass()
    finally:
        watch.stop()
    return workload.output_digest(output), watch.elapsed, watch.wall_ref


class SweepWorkload(_StoreWorkload):
    """The 8 KB x {1, 2, 4}-way sweep over the five default workloads."""

    section = "assoc-sweep"

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.names: list[str] = []
        self.cells: list = []
        self._captured: list = []
        self._restore = None
        self._summary_before = None

    def setup(self) -> None:
        self.names = seeded_names(SWEEP_WORKLOADS, self.seed)
        self.cells = build_grid(
            sizes=SWEEP_SIZES,
            associativities=SWEEP_ASSOCIATIVITIES,
            workloads=self.names,
        )
        if self._restore is None:
            self._restore = patch(
                "repro.sched.executor", "run_experiments_dag", self._capture
            )

    def ops(self) -> list[str]:
        return [cell.label for cell in self.cells]

    def _capture(self, original):
        # Keeps the per-cell ExperimentResults run_sweep does not return.
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            value = original(*args, **kwargs)
            self._captured.append(value[0])
            return value

        return wrapper

    def before_pass(self) -> None:
        self.fresh_store()
        super().before_pass()
        self._captured = []
        self._summary_before = sched_executor.last_summary()

    def run_pass(self):
        return run_sweep(self.cells, jobs=1)

    def close(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None
        super().close()

    def after_pass(self, payload) -> PassResult:
        result = PassResult(ops=self.ops())
        experiments = self._captured[0] if self._captured else [None] * len(self.cells)
        placed = []
        for cell, entry, experiment in zip(self.cells, payload["cells"], experiments):
            op = cell.label
            if experiment is None or not entry["ok"]:
                result.fail(op, "cell failed")
                continue
            check_arms(result, op, experiment.original.cache, [experiment.ccdp.cache])
            result.pin("natural", op, stats_digest(experiment.original.cache), op)
            placed.append(entry["placed_miss_rate"])
        for name in self.names:
            workload = make_workload(name)
            ops = [cell.label for cell in self.cells if cell.workload == name]
            for input_name in dict.fromkeys((workload.train_input, workload.test_input)):
                fingerprint = known_fingerprint(self.store, name, input_name)
                result.pin("traces", f"{name}/{input_name}", fingerprint, *ops)
        result.placed_miss_rate_pct = sum(placed) / len(placed) if placed else 0.0
        result.extras["bytes_written"] = self.bytes_written()
        summary = sched_executor.last_summary()
        if summary is not None and summary is not self._summary_before:
            result.extras.update(
                sched_executed=summary.executed,
                sched_pruned=summary.pruned,
                sched_deduped=summary.deduped,
            )
        set_store(None)
        return result


class AdaptiveWorkload:
    """Adaptive placement over three drift scenarios at two window sizes."""

    section = "adaptive-drift"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.traces: dict = {}

    def setup(self) -> None:
        self.traces = {
            name: record_trace(drift_input(name, self.seed), "test")
            for name in drift_workload_names()
        }

    def prepare(self) -> tuple[float, float] | None:
        return None

    def before_pass(self) -> None:
        clear_cache()
        gc.collect()
        set_store(None)

    def run_pass(self):
        return [
            (name, window, run_adaptive(trace, window_events=window, history=1))
            for name, trace in self.traces.items()
            for window in DRIFT_WINDOWS
        ]

    def ops(self) -> list[str]:
        return [
            f"{name}@{window}" for name in self.traces for window in DRIFT_WINDOWS
        ]

    def after_pass(self, runs) -> PassResult:
        result = PassResult(ops=self.ops())
        for name, window, run in runs:
            op = f"{name}@{window}"
            check_arms(result, op, run.stats, [])
            misses = sum(record.misses for record in run.windows)
            accesses = sum(record.accesses for record in run.windows)
            if (misses, accesses) != (run.stats.misses, run.stats.accesses):
                result.fail(
                    op,
                    f"windows sum to {misses}/{accesses} misses/accesses, "
                    f"run has {run.stats.misses}/{run.stats.accesses}",
                )
            if name == "stationary" and run.replacements:
                result.fail(op, f"{run.replacements} replacements on stationary")
        for name, trace in self.traces.items():
            ops = [f"{name}@{window}" for window in DRIFT_WINDOWS]
            result.pin("traces", name, trace_fingerprint(trace), *ops)
        rates = [run.miss_rate for _name, _window, run in runs]
        result.placed_miss_rate_pct = sum(rates) / len(rates)
        return result

    def close(self) -> None:
        self.traces = {}


def make(name: str, seed: int, tmp: Path):
    """The workload called ``name`` at ``seed``, with scratch space ``tmp``."""
    if name == "paper-cold":
        return PaperWorkload(seed, tmp, warm=False)
    if name == "paper-warm":
        return PaperWorkload(seed, tmp, warm=True)
    if name == "assoc-sweep":
        return SweepWorkload(seed, tmp)
    if name == "adaptive-drift":
        return AdaptiveWorkload(seed, tmp)
    raise KeyError(f"unknown workload {name!r}")
