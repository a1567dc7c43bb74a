"""``python -m bench``: run the benchmark, or compare two reports.

    python -m bench [--seed N] [--trace] [--seconds S] [-o out.json]
    python -m bench --workload NAME --seed N --seconds S --trace 0|1
    python -m bench compare A.json B.json

Each workload runs in its own worker subprocess (:mod:`bench.worker`).
Without ``--workload`` every workload in ``BENCHMARK.json`` runs.  With
it, one runs, and the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of an untraced run, or the per-layer metrics of a
traced one (``--trace 1``).  The exit code is 0 only when every check of
every pass held.  The report written with ``-o`` also holds, under
``observed``, the values every pinned check saw.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from . import ROOT, SPEC_PATH, SRC, TMP_ROOT, compare, load_spec

#: Time a worker may take beyond ``--seconds`` (set-up, checks, teardown).
WORKER_SLACK_S = 150


def _worker_env(run_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        TMPDIR=str(run_dir),
        REPRO_CACHE_DIR=str(run_dir / "cache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    run_dir: Path,
    spans: Path | None = None,
) -> dict | None:
    """Run one workload in a subprocess; its result, or None if it died.

    The worker leads a process group of its own, so a timeout stops the
    processes it started too.
    """
    result_path = run_dir / f"{name}.result.json"
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--result", str(result_path),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    worker = subprocess.Popen(
        command,
        cwd=ROOT,
        env=_worker_env(run_dir),
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        returncode = worker.wait(timeout=seconds + WORKER_SLACK_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {name} did not finish in time", file=sys.stderr)
        returncode = None
    finally:
        try:
            os.killpg(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        worker.wait()
    if returncode != 0 or not result_path.exists():
        print(f"bench: {name} worker exited {returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


#: Raw pass wall time and reference time, shown with every run.  They are
#: per-layer metrics, so an untraced run reports them apart, under "host".
HOST_METRICS = {"bench.wall_s": "s", "bench.ref_ms": "ms"}


def _summaries(samples: dict, units: dict) -> dict:
    return {
        name: dict(compare.summarize(samples[name]), unit=unit)
        for name, unit in units.items()
        if samples.get(name)
    }


def workload_report(result: dict, metrics: list[dict]) -> dict:
    """A worker result reduced to summaries of the named metrics."""
    units = {metric["name"]: metric["unit"] for metric in metrics}
    summaries = _summaries(result["samples"], units)
    host = _summaries(
        result["samples"],
        {name: unit for name, unit in HOST_METRICS.items() if name not in units},
    )
    attempted = result["attempted"]
    return {
        "passes": result["passes"],
        "attempted": attempted,
        "failed": result["failed"],
        "ops_failed_frac": result["failed"] / attempted if attempted else 1.0,
        "failures": result["failures"],
        "metrics": summaries,
        "host": host,
    }


def render(name: str, seed: int, trace: bool, report: dict) -> str:
    lines = [
        f"== {name}  seed {seed}  {'traced' if trace else 'untraced'}  "
        f"{report['passes']} passes  ops attempted {report['attempted']} "
        f"failed {report['failed']} (ops_failed_frac "
        f"{report['ops_failed_frac']:.4f})"
    ]
    for metric, summary in {**report["metrics"], **report["host"]}.items():
        lines.append(
            f"  {metric:<28} {summary['median']:>14.6g} {summary['unit']:<6}"
            f"  q1 {summary['q1']:.6g}  q3 {summary['q3']:.6g}  n {summary['n']}"
        )
    for failure in report["failures"][:10]:
        lines.append(
            f"  FAILED pass {failure['pass']} {failure['op']}: "
            + "; ".join(failure["reasons"])
        )
    return "\n".join(lines)


def _parser(names: list[str], run_seconds: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Run the benchmark (see bench/README.md); "
        "'python -m bench compare A.json B.json' compares two reports.",
    )
    parser.add_argument(
        "--workload", choices=names, help="run only this workload"
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed (0 = pinned)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=run_seconds,
        help=f"measured time per workload (default {run_seconds})",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="traced run: per-layer metrics instead of end-to-end ones",
    )
    parser.add_argument("-o", "--output", type=Path, help="write the report here")
    return parser


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    if not SPEC_PATH.is_file() or not (SRC / "repro").is_dir():
        print(
            f"bench: needs {SPEC_PATH.name} and the package under {SRC}",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    args = _parser(names, spec["run_seconds"]).parse_args(argv)
    trace = bool(args.trace)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    selected = [args.workload] if args.workload else names

    TMP_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    reports: dict[str, dict] = {}
    observed: dict[str, dict] = {}
    spans: list[Path] = []
    ok = True
    try:
        for name in selected:
            span_path = run_dir / f"{name}.spans.jsonl" if trace and args.output else None
            result = run_worker(
                name, args.seed, args.seconds, trace, run_dir, span_path
            )
            if result is None:
                ok = False
                continue
            report = workload_report(result, metrics)
            reports[name] = report
            observed[result["section"]] = result["observed"]
            ok = ok and report["failed"] == 0
            if span_path is not None:
                spans.append(span_path)
            print(render(name, args.seed, trace, report), flush=True)
        if args.output is not None:
            full = {
                "seed": args.seed,
                "trace": trace,
                "seconds": args.seconds,
                "workloads": reports,
                "observed": observed,
            }
            args.output.write_text(json.dumps(full, indent=2) + "\n")
            if spans:
                with open(args.output.with_suffix(".spans.jsonl"), "w") as out:
                    for path in spans:
                        out.write(path.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass

    if args.workload and args.workload in reports:
        report = reports[args.workload]
        line = {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": summary["median"], "unit": summary["unit"]}
                for name, summary in report["metrics"].items()
            },
        }
        print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
