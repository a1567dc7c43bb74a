"""The trace-scale benchmark: 10-100x amplified traces, bounded RSS.

The paper's traces top out around 9M events; the zero-copy trace plane
(:mod:`repro.trace.plane`) exists so the pipeline keeps working when
traces are 10-100x that.  This module is the scale proof: it records a
*base* synthetic trace, amplifies it by tiling its columns into a
backend container (``heap`` / ``shm`` / ``mmap``), and streams the
amplified trace through the batched cache engine with chunked address
resolution — measuring events/sec and the peak resident set.

Amplification by tiling is sound for this purpose: object ids are
run-unique, and the amplified trace keeps the base's declarations and
allocations where they were but moves its frees to the end of the
stream, so every object is live through every copy.  Every copy of the
access columns then resolves against the one replay of those lifetime
ops, and the simulated stream is a valid (if periodic) reference
pattern.

Each arm runs in a **fresh spawned process**: ``ru_maxrss`` is a
monotonic per-process high-water mark, so honest per-arm peaks require
per-arm processes.  The parent collects the arm results, cross-checks
the simulation digests of same-factor arms (backends must agree
bit-for-bit), verifies the headline bound — a memmapped 10x trace must
peak *below* the heap backend at 1x — and sweeps up anything a crashed
child could have left behind (``/dev/shm`` segments, spill files).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from ..obs import telemetry as obs
from ..trace import plane
from ..trace.buffer import (
    _OP_FREE,
    DEFAULT_CHUNK_EVENTS,
    TraceRecorder,
    record_trace,
)
from ..trace.events import Category

#: Output file of ``repro bench --trace-scale``.
SCALE_OUTPUT = "BENCH_scale.json"

#: Target events of one 1x arm (the paper's full run is ~9M events).
FULL_SCALE_EVENTS = 9_000_000
QUICK_SCALE_EVENTS = 450_000

#: Throughput floor the big arm must clear (events/sec).
MIN_EVENTS_PER_SEC = 1_000_000

#: Default scale factors; ``--scales 1,10,100`` extends the sweep.
DEFAULT_SCALES = (1, 10)

_BASE_ITERATIONS_FULL = 70_000
_BASE_ITERATIONS_QUICK = 7_000


def _base_workload(quick: bool):
    """The synthetic workload whose trace gets amplified."""
    from ..workloads.synthetic import SyntheticSpec, SyntheticWorkload

    spec = SyntheticSpec(
        hot_globals=8,
        hot_size=1920,
        cold_spacer=6272,
        small_cluster=4,
        iterations=_BASE_ITERATIONS_QUICK if quick else _BASE_ITERATIONS_FULL,
        heap_churn=4,
        heap_persistent=8,
    )
    return SyntheticWorkload(spec, name="synthetic-scale")


def amplify_trace(
    base: TraceRecorder,
    factor: int,
    backend: str,
    directory: str | os.PathLike | None = None,
) -> TraceRecorder:
    """Tile ``base``'s columns ``factor`` times into a ``backend`` container.

    The base columns stream chunk-wise through ``write_at`` — the
    amplified trace is never materialized in RAM — and the result wraps
    the sealed container with the base's lifetime ops.  Declarations and
    allocations keep their positions inside the first copy; the frees
    move to the end of the stream, because every later copy touches the
    base's heap objects again.
    """
    events = base.events * factor
    storage = plane.create_storage(backend, events, directory=directory)
    columns = base.columns()
    position = 0
    for _ in range(factor):
        for start in range(0, base.events, DEFAULT_CHUNK_EVENTS):
            end = min(start + DEFAULT_CHUNK_EVENTS, base.events)
            chunk = tuple(column[start:end] for column in columns)
            position += storage.write_at(position, chunk)
    storage.seal()
    ops = [op for op in base.ops if op[1] != _OP_FREE]
    ops += [(events, kind, obj_id) for _p, kind, obj_id in base.ops if kind == _OP_FREE]
    return TraceRecorder.from_storage(
        storage,
        ops=ops,
        compute_instructions=base.compute_instructions * factor,
        max_stack_depth=base.max_stack_depth,
    )


def _stats_digest(stats) -> str:
    """Order-stable digest of one simulation's cache statistics."""
    payload = {
        "accesses": stats.accesses,
        "misses": stats.misses,
        "writebacks": stats.writebacks,
        "by_category": {
            category.name: [
                stats.accesses_by_category[category],
                stats.misses_by_category[category],
            ]
            for category in Category
        },
    }
    raw = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def _leftover_files(workdir: str) -> list[str]:
    try:
        return sorted(os.listdir(workdir))
    except OSError:
        return []


def scale_arm(args: dict) -> dict:
    """One benchmark arm (the spawned-process entry point).

    Records the base trace, amplifies it into the arm's backend, streams
    it through the batched engine with chunked resolution and
    ``advise_done``, and reports timings, throughput, the stats digest,
    and this process's peak RSS.  All backing storage is closed (and
    unlinked) before returning; the arm reports any file left in its
    private workdir so the parent can flag a leak.
    """
    from ..cache.batch import BatchCacheSimulator
    from .resolvers import NaturalResolver

    backend = args["backend"]
    factor = args["factor"]
    quick = args["quick"]
    workdir = args["workdir"]

    began = time.perf_counter()
    workload = _base_workload(quick)
    if backend == "heap":
        base = record_trace(workload, "train")
    else:
        # Record through the arm's own backend with a small staging
        # chunk, so the spill-while-recording path is part of the run.
        base = record_trace(
            workload,
            "train",
            storage=backend,
            spill_chunk_events=1 << 16,
            spill_dir=workdir,
        )
    record_s = time.perf_counter() - began

    began = time.perf_counter()
    trace = amplify_trace(base, factor, backend, directory=workdir)
    base.close()
    build_s = time.perf_counter() - began

    engine = BatchCacheSimulator()
    obj, _offset, size, cat, store = trace.columns()
    began = time.perf_counter()
    for start, end, addr_chunk in trace.iter_resolved(NaturalResolver()):
        engine.consume(
            addr_chunk,
            size[start:end],
            obj[start:end],
            cat[start:end],
            store[start:end],
        )
        trace.advise_done(start, end)
    sim_s = time.perf_counter() - began

    events = trace.events
    digest = _stats_digest(engine.stats)
    trace.close()
    return {
        "backend": backend,
        "factor": factor,
        "events": events,
        "record_s": record_s,
        "build_s": build_s,
        "sim_s": sim_s,
        "events_per_sec": events / sim_s if sim_s else 0.0,
        "peak_rss_bytes": obs.peak_rss_bytes(),
        "digest": digest,
        "leftovers": _leftover_files(workdir),
    }


def _sweep_shm(pid: int) -> list[str]:
    """Unlink any ``/dev/shm`` segment a dead child of ours left behind.

    Segment names embed the creating pid (``repro-shm-<pid>-…``), so the
    parent can reap exactly its child's leaks after a crash without
    touching unrelated runs.
    """
    shm_root = "/dev/shm"
    swept: list[str] = []
    prefix = f"repro-shm-{pid}-"
    try:
        names = os.listdir(shm_root)
    except OSError:
        return swept
    for name in names:
        if name.startswith(prefix):
            try:
                os.unlink(os.path.join(shm_root, name))
                swept.append(name)
            except OSError:
                pass
    return swept


def _run_arm_in_child(payload: dict) -> dict:
    """Run one arm in a fresh spawn-context single-worker process.

    Spawn (not fork) so the child's ``ru_maxrss`` starts from a bare
    interpreter, not a copy of the parent's footprint; one pool per arm
    so the monotonic high-water mark never spans two arms.
    """
    pool = ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn"))
    try:
        worker_pid = None
        future = pool.submit(os.getpid)
        worker_pid = future.result()
        result = pool.submit(scale_arm, payload).result()
        result["swept_shm"] = _sweep_shm(worker_pid)
        return result
    except BaseException:
        if worker_pid is not None:
            _sweep_shm(worker_pid)
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def default_arms(
    scales: tuple[int, ...] = DEFAULT_SCALES,
    backends: tuple[str, ...] | None = None,
) -> list[tuple[str, int]]:
    """The (backend, scale) grid one bench run covers.

    With no explicit ``backends``, every backend runs at 1x (the parity
    and RSS baselines) and only ``mmap`` — the backend built for
    larger-than-RAM traces — runs the amplified scales.  An explicit
    backend list runs each named backend at every scale.
    """
    if backends:
        return [(backend, scale) for backend in backends for scale in scales]
    arms = [("heap", 1), ("shm", 1), ("mmap", 1)]
    arms.extend(("mmap", scale) for scale in scales if scale > 1)
    return arms


def run_scale_bench(
    quick: bool = False,
    scales: tuple[int, ...] | None = None,
    backends: tuple[str, ...] | None = None,
    output: str | None = SCALE_OUTPUT,
    progress=None,
) -> dict:
    """Run the trace-scale benchmark grid; write ``BENCH_scale.json``.

    Checks performed on the collected arms:

    * **parity** — every arm of the same scale factor must report the
      same simulation digest (bit-identical statistics across backends);
    * **rss bound** — the largest mmap arm must peak below the heap
      backend at 1x (when both ran);
    * **throughput** — the largest arm must clear
      ``MIN_EVENTS_PER_SEC``;
    * **leaks** — no arm may leave files in its private workdir, and
      any shm segment swept up after a crashed child is reported.
    """
    import tempfile

    say = progress or (lambda _message: None)
    scales = tuple(scales) if scales else DEFAULT_SCALES
    for scale in scales:
        if scale < 1:
            raise ValueError(f"scale factors must be >= 1, got {scale}")
    grid = default_arms(scales, tuple(backends) if backends else None)
    base_events = _probe_base_events(quick)
    target = QUICK_SCALE_EVENTS if quick else FULL_SCALE_EVENTS

    arms: list[dict] = []
    for backend, scale in grid:
        factor = max(1, -(-(target * scale) // base_events))
        say(
            f"trace-scale arm: {backend} @ {scale}x "
            f"(~{base_events * factor:,} events)..."
        )
        with tempfile.TemporaryDirectory(prefix="repro-scale-") as workdir:
            result = _run_arm_in_child(
                {
                    "backend": backend,
                    "factor": factor,
                    "quick": quick,
                    "workdir": workdir,
                }
            )
        result["scale"] = scale
        arms.append(result)

    by_factor: dict[int, set[str]] = {}
    for arm in arms:
        by_factor.setdefault(arm["factor"], set()).add(arm["digest"])
    parity_ok = all(len(digests) == 1 for digests in by_factor.values())

    heap_1x = next(
        (a for a in arms if a["backend"] == "heap" and a["scale"] == 1), None
    )
    mmap_arms = [a for a in arms if a["backend"] == "mmap"]
    biggest_mmap = max(mmap_arms, key=lambda a: a["events"], default=None)
    rss_bound_ok = None
    if heap_1x is not None and biggest_mmap is not None:
        rss_bound_ok = (
            biggest_mmap["peak_rss_bytes"] < heap_1x["peak_rss_bytes"]
        )
    biggest = max(arms, key=lambda a: a["events"])
    throughput_ok = biggest["events_per_sec"] >= MIN_EVENTS_PER_SEC
    leaks = {
        f"{arm['backend']}@{arm['scale']}x": arm["leftovers"]
        for arm in arms
        if arm["leftovers"]
    }

    result: dict = {
        "quick": quick,
        "scales": list(scales),
        "base_events": base_events,
        "chunk_events": DEFAULT_CHUNK_EVENTS,
        "arms": arms,
        "parity_ok": parity_ok,
        "rss_bound_ok": rss_bound_ok,
        "throughput_floor": MIN_EVENTS_PER_SEC,
        "throughput_ok": throughput_ok,
        "leaks": leaks,
    }
    if output:
        with open(output, "w") as handle:
            json.dump(result, handle, indent=2)
        result["output"] = output
    return result


def _probe_base_events(quick: bool) -> int:
    """Events in one base recording (cheap: one heap run in-process)."""
    trace = record_trace(_base_workload(quick), "train")
    return trace.events


def render_scale_bench(result: dict) -> str:
    """Human-readable summary of a :func:`run_scale_bench` result."""
    lines = [
        f"trace scale (base {result['base_events']:,} events, "
        f"chunk {result['chunk_events']:,}):"
    ]
    for arm in result["arms"]:
        lines.append(
            f"  {arm['backend']:<5}@{arm['scale']:>3}x "
            f"{arm['events']:>12,} ev   "
            f"build {arm['build_s']:6.2f}s   sim {arm['sim_s']:7.2f}s   "
            f"{arm['events_per_sec']:>12,.0f} ev/s   "
            f"peak RSS {arm['peak_rss_bytes'] / (1 << 20):8.1f} MiB"
        )
    lines.append(
        "  parity: "
        + ("identical digests per scale" if result["parity_ok"] else "MISMATCH")
    )
    if result["rss_bound_ok"] is not None:
        lines.append(
            "  rss bound (mmap@max < heap@1x): "
            + ("OK" if result["rss_bound_ok"] else "VIOLATED")
        )
    lines.append(
        f"  throughput floor {result['throughput_floor']:,} ev/s: "
        + ("OK" if result["throughput_ok"] else "MISSED")
    )
    if result["leaks"]:
        lines.append(f"  LEAKED FILES: {result['leaks']}")
    if "output" in result:
        lines.append(f"wrote {result['output']}")
    return "\n".join(lines)
