"""Fault-tolerant task dispatch across worker processes.

:func:`_resilient_map` runs a list of picklable tasks inline or over a
:class:`~concurrent.futures.ProcessPoolExecutor`, returning results in
task order; it is the dispatcher under the job-graph executor
(:func:`repro.sched.executor.run_experiments_dag`), which feeds it one
stage job per task.  :class:`ExperimentSpec` is the picklable
(workload, configuration) request the executor plans from: specs carry
only strings and a :class:`~repro.cache.config.CacheConfig`, so workers
rebuild workloads from their registry names and nothing non-picklable
ever crosses the process boundary.

Dispatch is *resilient* (:mod:`repro.runtime.faults`): every task runs
under the current :class:`~repro.runtime.faults.RetryPolicy` with
bounded retries, exponential backoff, and an optional per-task deadline.
A dead worker pool (crash) is respawned and its in-flight tasks
re-dispatched; a hung worker is detected by deadline, the pool is
killed, and the surviving tasks re-dispatched without losing an attempt.
In best-effort mode a task that exhausts its retries is recorded in a
:class:`~repro.runtime.faults.FanoutReport` (see
:func:`last_fanout_report`) while the remaining tasks complete; in
fail-fast mode the fan-out raises
:class:`~repro.runtime.faults.FaultToleranceError`.  Because completed
stages land in the content-addressed artifact store as they finish, a
rerun after any failure resumes from those checkpoints and re-executes
only the failed work.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Callable

from ..cache.config import CacheConfig
from ..obs import telemetry as obs
from ..store import ArtifactStore, use_store
from . import faults
from .faults import FanoutReport, FaultPlan, RetryPolicy, TaskFailure


@dataclass(frozen=True)
class ExperimentSpec:
    """One (workload, configuration) pipeline run, picklable."""

    workload: str
    same_input: bool = False
    include_random: bool = False
    classify: bool = False
    track_pages: bool = False
    cache_config: CacheConfig | None = None
    cost_model: str = "direct"


def default_jobs() -> int:
    """Worker count when none is given: one per available CPU."""
    return os.cpu_count() or 1


# -- task payload hygiene ------------------------------------------------------

#: Ceiling on one pickled task payload.  A task is a ``(JobSpec,
#: store_root, telemetry)`` tuple of strings and scalars — a few hundred
#: bytes; workers read trace columns from the store's memory-mapped
#: trace files, never from the task.  Anything near this limit means
#: bulk data leaked into a task tuple.
MAX_TASK_PAYLOAD_BYTES = 4 << 20


class TaskPayloadError(ValueError):
    """A pickled task payload exceeded the fan-out's byte ceiling."""


def _check_payloads(items: list, labels: list[str]) -> None:
    """Measure every task payload, log it via obs, and enforce the cap.

    Runs in the parent before any worker spawns, so an oversized payload
    (someone pickling trace columns into a task) fails fast with the
    offending task named, not as a mysteriously slow sweep.
    """
    for index, args in enumerate(items):
        size = len(pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL))
        obs.count("fanout.payload_bytes", size)
        obs.gauge_max("fanout.payload.max_bytes", size)
        if size > MAX_TASK_PAYLOAD_BYTES:
            raise TaskPayloadError(
                f"task payload for {labels[index]!r} pickles to {size:,} bytes "
                f"(limit {MAX_TASK_PAYLOAD_BYTES:,}); tasks carry stage specs "
                "and a store path, not trace columns or other bulk data"
            )


# -- retry policy and fan-out reports -----------------------------------------

_policy = RetryPolicy()
_reports: list[FanoutReport] = []


def set_retry_policy(policy: RetryPolicy) -> None:
    """Install the fan-out retry policy (the CLI flag plumbing)."""
    global _policy
    _policy = policy


def current_retry_policy() -> RetryPolicy:
    """The installed fan-out retry policy."""
    return _policy


def reset_fanout_reports() -> None:
    """Drop the accumulated per-fan-out reports (start of a command)."""
    _reports.clear()


def fanout_reports() -> list[FanoutReport]:
    """Every fan-out report accumulated since the last reset."""
    return list(_reports)


def last_fanout_report() -> FanoutReport | None:
    """The most recent fan-out's report, if any fan-out has run."""
    return _reports[-1] if _reports else None


def combined_fanout_report() -> FanoutReport | None:
    """All accumulated reports folded into one, or None when empty."""
    if not _reports:
        return None
    combined = FanoutReport()
    for report in _reports:
        combined.merge(report)
    return combined


def record_report(report: FanoutReport) -> None:
    """Append an externally-built fan-out report to the accumulator.

    The DAG executor (:mod:`repro.sched.executor`) records an empty
    report for a run that dispatched nothing, so every run leaves
    exactly one report behind.
    """
    _reports.append(report)


# -- worker entry points ------------------------------------------------------


def _install_worker_store(store_root: str | None):
    """Context installing a fresh store handle inside a worker process."""
    if store_root is None:
        return use_store(None)
    return use_store(ArtifactStore(store_root))


def _pool_entry(packed: tuple):
    """Generic pooled task: inject scheduled faults, then run the worker.

    ``packed`` is ``(worker, args, index, attempt)``.  The fault plan is
    re-read from the environment inside the worker process so crash and
    hang injection happen on the worker side of the process boundary.
    """
    worker, args, index, attempt = packed
    plan = FaultPlan.from_env()
    if plan:
        fired = faults.inject(plan, index, attempt, inline=False)
        if fired is not None:  # corrupt-result injection
            return faults.CorruptMarker(index)
    return worker(args)


# -- the resilient executor ---------------------------------------------------


def _classify(exc: BaseException) -> str:
    """Failure kind of one task exception."""
    if isinstance(exc, faults.InjectedTimeout):
        return "timeout"
    if isinstance(exc, (faults.InjectedCrash, BrokenExecutor)):
        return "crash"
    if isinstance(exc, faults.CorruptResultError):
        return "corrupt"
    return "error"


def _register_failure(
    report: FanoutReport,
    policy: RetryPolicy,
    labels: list[str],
    index: int,
    attempt: int,
    kind: str,
    message: str,
) -> float | None:
    """Tally one failed attempt; return the retry delay or None.

    ``None`` means the task is degraded: its :class:`TaskFailure` has
    been recorded and, under a fail-fast policy, the whole fan-out is
    aborted here with :class:`FaultToleranceError`.
    """
    if kind == "timeout":
        report.timeouts += 1
        obs.count("faults.timeouts")
    elif kind == "crash":
        report.crashes += 1
        obs.count("faults.crashes")
    elif kind == "corrupt":
        report.corrupt += 1
        obs.count("faults.corrupt")
    if attempt < policy.max_retries:
        report.retries += 1
        obs.count("faults.retries")
        return policy.delay(index, attempt)
    failure = TaskFailure(
        index=index,
        label=labels[index],
        kind=kind,
        attempts=attempt + 1,
        error=message,
    )
    report.failures.append(failure)
    obs.count("faults.degraded")
    if not policy.best_effort:
        raise faults.FaultToleranceError(report)
    return None


def _inline_map(
    items: list,
    labels: list[str],
    run: Callable,
    policy: RetryPolicy,
    plan: FaultPlan,
    report: FanoutReport,
    feed: Callable | None = None,
) -> list:
    """Sequential resilient execution in the parent process.

    Injected crashes and hangs are simulated with exceptions (a real
    inline hang could not be interrupted), so the single-job path
    exercises the same retry and degradation machinery as the pool.
    ``feed`` (see :func:`_resilient_map`) may extend ``items`` and
    ``labels`` in place as tasks complete.
    """
    results: list = [None] * len(items)
    index = -1
    while index + 1 < len(items):
        index += 1
        args = items[index]
        attempt = 0
        while True:
            try:
                if plan:
                    fired = faults.inject(plan, index, attempt, inline=True)
                    if fired is not None:
                        raise faults.CorruptResultError(
                            f"injected corrupt result at task {index}"
                        )
                results[index] = run(args)
                report.completed += 1
                if feed is not None:
                    for fed_args, fed_label, _priority in feed(
                        index, results[index]
                    ):
                        items.append(fed_args)
                        labels.append(fed_label)
                        results.append(None)
                        report.total += 1
                break
            except faults.FaultToleranceError:
                raise
            except Exception as exc:
                kind = _classify(exc)
                delay = _register_failure(
                    report,
                    policy,
                    labels,
                    index,
                    attempt,
                    kind,
                    f"{type(exc).__name__}: {exc}",
                )
                if delay is None:
                    break
                with obs.span(
                    "fanout.retry",
                    task=labels[index],
                    attempt=attempt + 1,
                    kind=kind,
                ):
                    if delay > 0:
                        time.sleep(delay)
                attempt += 1
    return results


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool outright, hung workers included, and reap children.

    ``shutdown(wait=True)`` would block behind a hung worker and a bare
    ``shutdown(wait=False)`` would orphan it; terminating the worker
    processes first makes shutdown prompt either way.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.join(timeout=1.0)
        except Exception:
            pass


def _pooled_map(
    items: list,
    labels: list[str],
    worker: Callable,
    jobs: int,
    policy: RetryPolicy,
    plan: FaultPlan,
    finalize: Callable,
    report: FanoutReport,
    priorities: list[float] | None = None,
    feed: Callable | None = None,
) -> list:
    """Resilient fan-out over a (respawnable) process pool.

    At most ``jobs`` tasks are in flight, so a submitted task starts
    immediately and its deadline can be measured from submission.  A
    broken pool costs every in-flight task one attempt (the dead worker
    cannot be attributed); a deadline expiry costs only the overdue
    tasks an attempt — the survivors are re-dispatched as-is after the
    pool is killed and respawned.

    With ``priorities``, dispatchable tasks are submitted
    longest-estimated-first so one heavy shard never serializes the
    fan-out behind it; ``feed`` (see :func:`_resilient_map`) injects
    newly unblocked tasks as their dependencies settle.
    """
    results: list = [None] * len(items)
    pending: list[list] = [[index, 0, 0.0] for index in range(len(items))]
    pool = ProcessPoolExecutor(max_workers=jobs)
    active: dict = {}

    def settle(index: int, attempt: int, outcome) -> None:
        if faults.is_corrupt(outcome):
            fail(index, attempt, "corrupt", "worker returned a corrupt result")
            return
        results[index] = finalize(index, attempt, outcome)
        report.completed += 1
        if feed is not None:
            for fed_args, fed_label, fed_priority in feed(index, results[index]):
                _check_payloads([fed_args], [fed_label])
                items.append(fed_args)
                labels.append(fed_label)
                if priorities is not None:
                    priorities.append(fed_priority)
                results.append(None)
                report.total += 1
                pending.append([len(items) - 1, 0, 0.0])

    def fail(index: int, attempt: int, kind: str, message: str) -> None:
        delay = _register_failure(report, policy, labels, index, attempt, kind, message)
        if delay is None:
            return
        with obs.span(
            "fanout.retry", task=labels[index], attempt=attempt + 1, kind=kind
        ):
            pending.append([index, attempt + 1, time.monotonic() + delay])

    def respawn() -> None:
        nonlocal pool
        _terminate_pool(pool)
        pool = ProcessPoolExecutor(max_workers=jobs)

    def handle_broken() -> None:
        # Every in-flight future is doomed with the pool; results that
        # finished before the break are kept, the rest cost an attempt.
        doomed = list(active.items())
        active.clear()
        for future, (index, attempt, _deadline) in doomed:
            if future.done():
                try:
                    outcome = future.result()
                except Exception:
                    pass
                else:
                    settle(index, attempt, outcome)
                    continue
            fail(index, attempt, "crash", "worker process pool died")
        respawn()

    try:
        while pending or active:
            now = time.monotonic()
            progressed = True
            while progressed and len(active) < jobs and pending:
                progressed = False
                if priorities is None:
                    candidates = list(pending)
                else:
                    candidates = sorted(
                        pending, key=lambda entry: -priorities[entry[0]]
                    )
                for entry in candidates:
                    if len(active) >= jobs:
                        break
                    index, attempt, ready_at = entry
                    if ready_at > now:
                        continue
                    pending.remove(entry)
                    deadline = (
                        now + policy.task_timeout
                        if policy.task_timeout
                        else None
                    )
                    try:
                        future = pool.submit(
                            _pool_entry, (worker, items[index], index, attempt)
                        )
                    except Exception:
                        # The pool broke between waits; recycle it and
                        # put this task back unchanged.
                        pending.append([index, attempt, 0.0])
                        handle_broken()
                        break
                    active[future] = (index, attempt, deadline)
                    progressed = True
            if not active:
                if not pending:
                    break
                ready_at = min(entry[2] for entry in pending)
                time.sleep(max(0.0, ready_at - time.monotonic()))
                continue
            deadlines = [meta[2] for meta in active.values() if meta[2] is not None]
            backoffs = [entry[2] for entry in pending if entry[2] > now]
            wake_at = min(deadlines + backoffs) if deadlines or backoffs else None
            timeout = (
                None
                if wake_at is None
                else max(0.0, wake_at - time.monotonic()) + 0.01
            )
            done, _running = futures_wait(
                set(active), timeout=timeout, return_when=FIRST_COMPLETED
            )
            if done:
                broken = False
                for future in done:
                    index, attempt, _deadline = active.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenExecutor as exc:
                        broken = True
                        fail(
                            index,
                            attempt,
                            "crash",
                            f"worker process died ({exc})",
                        )
                    except Exception as exc:
                        fail(
                            index,
                            attempt,
                            _classify(exc),
                            f"{type(exc).__name__}: {exc}",
                        )
                    else:
                        settle(index, attempt, outcome)
                if broken:
                    handle_broken()
                continue
            now = time.monotonic()
            expired = [
                (future, meta)
                for future, meta in active.items()
                if meta[2] is not None and meta[2] <= now and not future.done()
            ]
            if not expired:
                continue
            for future, (index, attempt, _deadline) in expired:
                del active[future]
                fail(
                    index,
                    attempt,
                    "timeout",
                    f"task exceeded its {policy.task_timeout:.3g}s deadline",
                )
            # A hung worker cannot be cancelled: kill the pool and
            # re-dispatch the unexpired survivors without charging them.
            survivors = list(active.values())
            active.clear()
            for index, attempt, _deadline in survivors:
                pending.append([index, attempt, 0.0])
            respawn()
    finally:
        _terminate_pool(pool)
    return results


def _resilient_map(
    items: list,
    labels: list[str],
    worker: Callable,
    inline: Callable,
    jobs: int,
    policy: RetryPolicy | None = None,
    priorities: list[float] | None = None,
    feed: Callable | None = None,
) -> tuple[list, FanoutReport]:
    """Run tasks under the retry policy, pooled or inline; keep order.

    ``worker`` is the picklable pool entry (``worker(args) -> outcome``,
    where an outcome is ``(result, telemetry_payload)``); ``inline`` is
    the parent-process equivalent returning the bare result.  Failed
    best-effort tasks leave ``None`` holes in the result list; the
    report is also appended to the module accumulator
    (:func:`fanout_reports`).

    ``priorities`` (parallel to ``items``, estimated seconds) makes
    pooled submission longest-estimated-first.  ``feed(index, result)``
    turns the fan-out into a dynamic frontier: called after each task
    settles, it returns ``(args, label, priority)`` triples for tasks
    that just became dispatchable, which are appended to the run (the
    DAG executor's ready-set expansion).
    """
    policy = _policy if policy is None else policy
    plan = FaultPlan.from_env()
    report = FanoutReport(total=len(items))
    if plan:
        report.injected = plan.planned_count(len(items))
        obs.count("faults.injected", report.injected)
    parent = obs.current()

    def finalize(index: int, attempt: int, outcome):
        result, payload = outcome
        if payload is not None and parent is not None:
            meta = {"attempt": attempt} if attempt else {}
            parent.merge_child(
                payload, label=f"worker[{index}]:{labels[index]}", **meta
            )
        return result

    try:
        if jobs == 1:
            results = _inline_map(
                items, labels, inline, policy, plan, report, feed=feed
            )
        else:
            _check_payloads(items, labels)
            results = _pooled_map(
                items,
                labels,
                worker,
                jobs,
                policy,
                plan,
                finalize,
                report,
                priorities=priorities,
                feed=feed,
            )
    finally:
        _reports.append(report)
    return results, report
