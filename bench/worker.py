"""One workload in its own process: set up, run passes until time is up, check.

``python -m bench.worker --workload NAME --seed N --seconds S --trace 0|1
--result PATH`` writes one JSON object of raw samples to ``PATH``;
:mod:`bench.__main__` starts it, summarizes the samples and prints them.

The process is single-threaded and runs everything in-process (``jobs=1``).
Set-up is measured :data:`SETUP_REPEATS` times, after one untimed round:
each repeat is the import time of ``repro`` in a fresh interpreter plus
one round of input generation in this one.  The workload's one-off
preparation (priming the ``paper-warm`` store, about one cold pass) is
timed once and added to every repeat.  Each part is measured in reference
units (the import against a block the fresh interpreter times itself, the
rest between two blocks of this process) and reported in seconds at the
reference's nominal speed (:data:`bench.reference.NOMINAL_S` per unit).
Passes then start until ``--seconds`` have gone by (at
least :data:`MIN_PASSES`); the last one may run past it, so every pass is
measured whole.  A traced run alternates untraced and traced passes, so
the tracing overhead is measured under the same conditions as the spans.

An untraced pass is timed by a :class:`bench.reference.Stopwatch`, which
pauses at layer boundaries about every half second to time the reference
kernel.  The pass's ``wall_s`` is the sum of its intervals; its
``wall_ref`` divides each interval by the reference time around it, which
takes the drift of the host's speed out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from . import EXPECTED_PATH, SRC, reference

#: Set-up rounds per run, after one untimed round; ``setup_s`` is their
#: median.  With seven, the quartiles leave out the fastest and the
#: slowest round, so one stray import time does not widen them.
SETUP_REPEATS = 7

#: Fewest passes of an untraced run.  The ~10 s workloads fit only this
#: many.  Its being fixed also keeps the peak RSS (which the second pass
#: raises) from depending on how many passes a fast or slow host fits.
MIN_PASSES = 2

#: At most this many failure records are kept in the result.
MAX_FAILURE_RECORDS = 50

_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro.experiments, repro.sweep, repro.adaptive\n"
    "elapsed = time.perf_counter() - start\n"
    "from bench import reference\n"
    "print(elapsed, *reference.block())\n"
)


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    package = SRC / "repro"
    if not package.is_dir():
        raise SystemExit(f"bench: no package at {package}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: repro imported from {repro.__file__}, not {package}")


def import_units() -> float:
    """Time to import ``repro`` in a fresh interpreter, in reference units.

    The interpreter times a reference block itself once the import is
    done: it may run on another core than this process, at another speed.
    """
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=SRC.parent,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    elapsed, *block = map(float, done.stdout.split())
    return elapsed / statistics.median(block)


def _wants_another_pass(passes: list[dict], trace: bool, deadline: float) -> bool:
    untraced = sum(1 for p in passes if not p["traced"])
    traced = len(passes) - untraced
    if trace:
        if untraced == 0 or traced == 0:
            return True
    elif untraced < MIN_PASSES:
        return True
    return time.perf_counter() < deadline


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    expected: dict | None,
    spans_path: Path | None = None,
) -> dict:
    """Run one workload; returns the raw samples and check outcomes.

    Stores and other scratch files go under ``TMPDIR``, which the parent
    points into the checkout.
    """
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-"))
    use_checkout_src()
    from . import workloads
    from .tracer import Tracer, layer_metrics, layer_of

    workload = workloads.make(name, seed, tmp)
    rounds = []
    for repeat in range(SETUP_REPEATS + 1):
        probe = import_units()
        before = reference.block()
        start = time.perf_counter()
        workload.setup()
        units = probe + reference.in_units(time.perf_counter() - start, before)
        if repeat:  # the first round only warms the file and page caches
            rounds.append(units)
    before = reference.block()
    start = time.perf_counter()
    paced = workload.prepare()
    elapsed = time.perf_counter() - start
    # The part of the preparation timed like a pass, with pauses, counts
    # at its own reference units; the rest is one interval.
    paced_s, paced_units = paced or (0.0, 0.0)
    prepared = paced_units + reference.in_units(elapsed - paced_s, before)
    setups = [reference.NOMINAL_S * (units + prepared) for units in rounds]

    tracer = Tracer() if trace else None
    passes: list[dict] = []
    layers: list[dict] = []
    failures: list[dict] = []
    attempted = failed = 0
    observed: dict = {}
    placed: float | None = None
    span_lines: list[str] = []
    deadline = time.perf_counter() + seconds
    try:
        while _wants_another_pass(passes, trace, deadline):
            index = len(passes)
            traced = trace and index % 2 == 1
            workload.before_pass()
            if traced:
                tracer.start_pass(index)
                tracer.install()
            watch = reference.Stopwatch(pause=not traced)
            watch.start()
            error = None
            try:
                output = workload.run_pass()
            except Exception:
                error = traceback.format_exc()
            finally:
                watch.stop()
            if traced:
                tracer.uninstall()
            if error is None:
                try:
                    result = workload.after_pass(output)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                result = workloads.PassResult(ops=workload.ops())
                for op in result.ops:
                    result.fail(op, error.strip().splitlines()[-1])
                print(error, file=sys.stderr)
            if placed is None:
                placed = result.placed_miss_rate_pct
                observed = result.observed()
            elif result.placed_miss_rate_pct != placed:
                for op in result.ops:
                    result.fail(op, "placed miss rate differs from the first pass")
            if expected is not None:
                result.check_expected(expected.get(workload.section, {}))
            attempted += len(result.ops)
            failed += len(result.failures)
            for op, reasons in result.failures.items():
                if len(failures) < MAX_FAILURE_RECORDS:
                    failures.append({"pass": index, "op": op, "reasons": reasons})
            passes.append(
                {
                    "wall_s": watch.wall,
                    "wall_ref": watch.wall_ref,
                    "ref_s": watch.ref_s,
                    "traced": traced,
                }
            )
            if traced:
                spans = tracer.start_pass(-1)
                layers.append(layer_metrics(spans, watch.wall, result.extras))
                if spans_path is not None:
                    span_lines.extend(
                        json.dumps(
                            {
                                "workload": name,
                                "pass": index,
                                "layer": layer_of(span.name),
                                "name": span.name,
                                "start": span.start,
                                "end": span.end,
                                "parent": span.parent,
                                "events": span.events,
                            }
                        )
                        for span in spans
                    )
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    host = {
        "bench.wall_s": walls,
        "bench.ref_ms": [1000.0 * p["ref_s"] for p in untraced],
    }
    samples = {
        "wall_ref": [p["wall_ref"] for p in untraced],
        "setup_s": setups,
        "peak_rss_mib": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        "placed_miss_rate_pct": [placed if placed is not None else 0.0],
        **host,
    }
    if trace:
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        overhead = 100.0 * (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        samples = {key: [layer[key] for layer in layers] for key in layers[0]}
        samples["bench.trace_overhead_pct"] = [overhead]
        samples.update(host)
    if spans_path is not None:
        spans_path.write_text("".join(line + "\n" for line in span_lines))
    return {
        "workload": name,
        "section": workload.section,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "observed": observed,
        "samples": samples,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="write traced spans here")
    args = parser.parse_args(argv)
    expected = json.loads(EXPECTED_PATH.read_text()) if args.seed == 0 else None
    result = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        expected,
        args.spans,
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
