"""Explicit job-graph scheduler for the experiment pipeline.

Every experiment batch runs through this package.
:mod:`~repro.sched.jobs` expands experiment specs into a stage-typed
:class:`~repro.sched.graph.JobGraph` whose nodes are keyed by
store-digest (so identical work across experiments deduplicates
*before* execution), a store probe pass warm-loads already-computed
nodes (partial-graph resume), and :mod:`~repro.sched.executor` drains
the ready frontier longest-estimated-first through the fault-tolerant
dispatcher, inline or over a process pool.

Only the inert pieces import eagerly; the executor pulls in the runtime
stack and is imported lazily by its callers.
"""

from .costs import job_cost
from .graph import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    PRUNED,
    RUNNING,
    SATISFIED,
    GraphCycleError,
    Job,
    JobGraph,
)

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "PENDING",
    "PRUNED",
    "RUNNING",
    "SATISFIED",
    "GraphCycleError",
    "Job",
    "JobGraph",
    "job_cost",
]
