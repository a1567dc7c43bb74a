"""Graph executor: plan, warm-load, dispatch along the critical path, assemble.

:func:`run_experiments_dag` is the one way experiment specs run, at
every ``--jobs`` value and with or without an artifact store:

1. **Plan** — :func:`~repro.sched.jobs.plan_experiments` expands the
   specs into a deduplicated stage-job graph.
2. **Warm-load** — :func:`~repro.sched.jobs.probe_graph` decodes every
   artifact already in the store once, into the run's in-memory bag,
   and marks its job ``warm-pruned``; a fully-warm graph schedules zero
   executions.
3. **Dispatch** — the surviving frontier runs through
   :func:`~repro.runtime.parallel._resilient_map` (retry / respawn /
   fault injection), inline at one job and over a process pool above
   that, fed dynamically: each settled job files its artifact in the
   bag and unlocks its ready dependents, and the pending set is drained
   longest-estimated-first so the critical path starts immediately.
4. **Assemble** — aggregate nodes run in the parent, rebuilding each
   spec's :class:`~repro.runtime.driver.ExperimentResult` from the bag.

Pool workers hand artifacts to each other through the store, so a
store-less parallel run works in a scratch store in a temporary
directory (never probed, never reported as resumable) and deletes it on
return.  A failed job cancels its transitive dependents; the affected
specs come back as ``None`` holes with a spec-level
:class:`~repro.runtime.faults.FanoutReport` recorded for the usual
partial-results rendering.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from ..obs import telemetry as obs
from ..runtime import parallel
from ..runtime.faults import (
    FanoutReport,
    FaultToleranceError,
    RetryPolicy,
    TaskFailure,
)
from ..store import ArtifactStore, current_store, use_store
from ..store import stages as store_stages
from . import jobs as sched_jobs
from .graph import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    PRUNED,
    RUNNING,
    SATISFIED,
    Job,
    JobGraph,
)

#: Directory-name prefix of the scratch store a store-less parallel run
#: works in (under the system temporary directory).
SCRATCH_STORE_PREFIX = "repro-scratch-store-"


@dataclass
class PlanSummary:
    """One scheduler run, condensed: the ``[sched]`` summary line."""

    total: int = 0
    executed: int = 0
    deduped: int = 0
    pruned: int = 0
    failed: int = 0
    cancelled: int = 0
    critical_path_seconds: float = 0.0
    wall_seconds: float = 0.0
    job_seconds_by_kind: dict[str, float] = field(default_factory=dict)

    def line(self) -> str:
        return (
            f"[sched] total={self.total} executed={self.executed} "
            f"deduped={self.deduped} pruned={self.pruned} "
            f"failed={self.failed} cancelled={self.cancelled} "
            f"critical_path={self.critical_path_seconds:.2f}s "
            f"wall={self.wall_seconds:.2f}s"
        )


_last_summary: PlanSummary | None = None


def last_summary() -> PlanSummary | None:
    """The most recent :func:`run_experiments_dag`'s summary, if any."""
    return _last_summary


def _effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def _mean_seconds_by_kind(graph: JobGraph) -> dict[str, float]:
    """Mean executed seconds per stage kind (the cost-prior feedback)."""
    sums: dict[str, list[float]] = {}
    for job in graph:
        if job.state == DONE and job.seconds > 0:
            sums.setdefault(job.kind, []).append(job.seconds)
    return {
        kind: sum(values) / len(values) for kind, values in sums.items()
    }


def _dispatch(
    graph: JobGraph, jobs: int, policy: RetryPolicy | None, bag: dict
) -> FanoutReport:
    """Run every pending stage job through the resilient executor.

    The fan-out starts from the ready frontier and grows via ``feed``:
    settling a job marks it done, files its artifact in ``bag`` and
    returns its newly-ready dependents as fresh tasks.  Aggregate nodes
    never dispatch — they are assembled in the parent afterwards.
    Returns the run's report, which is also the last one in the fan-out
    report accumulator.
    """
    pooled = jobs > 1
    store_root = str(current_store().root) if pooled else None
    with_telemetry = obs.current() is not None
    dispatch: list[Job] = []

    def admit(job: Job) -> tuple:
        graph.mark_running(job)
        obs.count("sched.ready")
        dispatch.append(job)
        args = (job.spec, store_root, with_telemetry) if pooled else job.spec
        return args, job.label, job.cost

    def feed(index: int, result: dict) -> list[tuple]:
        job = dispatch[index]
        graph.mark_done(job, result["seconds"])
        if result["artifact"] is not None:
            bag[sched_jobs.bag_key(job.spec)] = result["artifact"]
        ready = [
            dependent
            for dependent in job.dependents
            if dependent.kind != "aggregate" and dependent.ready()
        ]
        ready.sort(key=lambda ready_job: -ready_job.cost)
        return [admit(ready_job) for ready_job in ready]

    frontier = [job for job in graph.ready_jobs() if job.kind != "aggregate"]
    frontier.sort(key=lambda job: -job.cost)
    if not frontier:
        report = FanoutReport()
        parallel.record_report(report)
        return report
    items: list = []
    labels: list[str] = []
    priorities: list[float] = []
    for job in frontier:
        args, label, priority = admit(job)
        items.append(args)
        labels.append(label)
        priorities.append(priority)
    _results, report = parallel._resilient_map(
        items,
        labels,
        sched_jobs.job_entry,
        lambda spec: sched_jobs.run_job(spec, bag),
        jobs,
        policy,
        priorities=priorities,
        feed=feed,
    )
    for failure in report.failures:
        job = dispatch[failure.index]
        graph.mark_failed(job, failure.error)
        job.meta["failure"] = failure
    for job in graph:
        # A pending job here was never fed — its dependency chain broke
        # before it became ready (e.g. a mid-chain failure already
        # cancelled the edge between them).
        if job.kind != "aggregate" and job.state in (PENDING, RUNNING):
            job.state = CANCELLED
            job.error = job.error or "never became ready"
    return report


def _spec_failure(spec_index: int, spec, aggregate: Job) -> TaskFailure:
    """Spec-level failure naming the stage job that sank the spec."""
    upstream, seen = list(aggregate.deps), set()
    while upstream:
        job = upstream.pop(0)
        if job.key in seen:
            continue
        seen.add(job.key)
        failure = job.meta.get("failure")
        if failure is not None:
            return TaskFailure(
                index=spec_index,
                label=spec.workload,
                kind=failure.kind,
                attempts=failure.attempts,
                error=f"{job.label}: {failure.error}",
            )
        upstream.extend(job.deps)
    return TaskFailure(
        index=spec_index,
        label=spec.workload,
        kind="error",
        attempts=1,
        error=aggregate.error or "result assembly failed",
    )


def _attach_checkpoints(
    report: FanoutReport, specs: list, store: ArtifactStore
) -> None:
    """Annotate each failed spec with the stages a rerun resumes from."""
    from ..workloads import make_workload

    for failure in report.failures:
        spec = specs[failure.index]
        try:
            workload = make_workload(spec.workload)
            train = workload.train_input
            report.checkpoints[failure.label] = store_stages.checkpoint_coverage(
                store,
                workload,
                train,
                test_input=train if spec.same_input else workload.test_input,
                config=spec.cache_config,
                classify=spec.classify,
                track_pages=spec.track_pages,
            )
        except Exception:
            continue


def run_experiments_dag(
    specs,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> tuple[list, JobGraph, PlanSummary]:
    """Run experiment specs as one deduplicated job graph.

    Returns ``(results, graph, summary)`` with results in spec order
    (``None`` holes for specs whose jobs failed under a best-effort
    policy).  The run's :class:`FanoutReport` in the accumulator
    (:func:`repro.runtime.parallel.last_fanout_report`) counts specs, so
    partial-results rendering counts experiments, not stage jobs.
    """
    specs = list(specs)
    jobs = parallel.default_jobs() if jobs is None else jobs
    # Executor selection is resource-aware: a worker pool only pays off
    # when the host can actually run workers concurrently.  On a single
    # effective CPU the pool is pure fork/IPC/store round-trip overhead
    # interleaved on one core, so the graph runs inline instead — same
    # jobs, same artifacts, same results.
    jobs = max(1, min(jobs, _effective_cpus()))
    if jobs == 1 or current_store() is not None:
        return _run_graph(specs, jobs, policy)
    root = tempfile.mkdtemp(prefix=SCRATCH_STORE_PREFIX)
    try:
        with use_store(ArtifactStore(root)):
            return _run_graph(specs, jobs, policy, scratch=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run_graph(
    specs: list, jobs: int, policy: RetryPolicy | None, scratch: bool = False
) -> tuple[list, JobGraph, PlanSummary]:
    """Plan, warm-load, dispatch and assemble one batch of specs."""
    global _last_summary
    policy = parallel.current_retry_policy() if policy is None else policy
    start = time.perf_counter()
    graph, aggregates = sched_jobs.plan_experiments(specs)
    store = None if scratch else current_store()
    bag: dict = {}
    if store is not None:
        sched_jobs.probe_graph(store, graph, bag)
    critical_path = graph.critical_path_seconds()
    obs.gauge("sched.critical_path_seconds", critical_path)
    report = _dispatch(graph, jobs, policy, bag)
    # The recorded report keeps the stage jobs' retry and fault tallies
    # but counts specs, so partial-results summaries count table rows.
    report.total = len(specs)
    report.completed = 0
    report.failures = []

    results: list = []
    for spec_index, (spec, aggregate) in enumerate(zip(specs, aggregates)):
        result = None
        if all(dep.state in SATISFIED for dep in aggregate.deps):
            result = sched_jobs.assemble_experiment(aggregate, bag)
        if result is not None:
            graph.mark_done(aggregate)
            report.completed += 1
        else:
            if aggregate.state not in (FAILED, CANCELLED):
                aggregate.state = CANCELLED
                aggregate.error = "result assembly failed"
            report.failures.append(_spec_failure(spec_index, spec, aggregate))
        results.append(result)
    if report.failures and store is not None:
        _attach_checkpoints(report, specs, store)
    if report.failures and not policy.best_effort:
        # Fail-fast surfaced inside _resilient_map already; this guard
        # only matters for assembly-stage surprises.
        raise FaultToleranceError(report)

    counts = graph.counts()
    summary = PlanSummary(
        total=len(graph),
        executed=sum(
            1
            for job in graph
            if job.kind != "aggregate" and job.state == DONE
        ),
        deduped=counts.get("deduped", 0),
        pruned=counts.get(PRUNED, 0),
        failed=counts.get(FAILED, 0),
        cancelled=counts.get(CANCELLED, 0),
        critical_path_seconds=critical_path,
        wall_seconds=time.perf_counter() - start,
        job_seconds_by_kind=_mean_seconds_by_kind(graph),
    )
    _last_summary = summary
    return results, graph, summary
