"""Fault model for the experiment fan-out: plans, policies, reports.

The fan-out in :mod:`repro.runtime.parallel` is the one place the
pipeline leaves a single process, so it is the one place partial failure
exists: a worker can raise, be killed, hang, or ship back garbage.  This
module holds the vocabulary the resilient executor speaks:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter, an optional per-task timeout, and the
  fail-fast/best-effort switch.
* :class:`FaultPlan` — a deterministic fault-injection schedule parsed
  from the ``REPRO_FAULTS`` environment variable (``crash@1,hang@2``),
  so every degradation path is exercisable in-process and in CI without
  flaky sleeps or real resource exhaustion.
* :class:`TaskFailure` / :class:`FanoutReport` — the structured record
  of what a fan-out survived: retries, timeouts, crashes, and the shards
  that exhausted their retries, with the artifact-store checkpoints a
  rerun will resume from.

Injected faults are keyed by *(task index, attempt)*: ``crash@1`` fires
on task 1's first attempt only (so the retry succeeds and the run's
output is byte-identical to a fault-free run), while ``oom@1#*`` fires
on every attempt (so retry exhaustion and best-effort degradation are
testable).  Task indices refer to positions in the dispatched task
list: the job graph's stage jobs in dispatch order, after warm stages
have been pruned.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

#: Environment variable holding the fault-injection plan.
ENV_FAULTS = "REPRO_FAULTS"

#: Environment variable overriding how long an injected hang sleeps.
ENV_HANG_SECONDS = "REPRO_FAULTS_HANG"

#: Recognized fault kinds.
FAULT_KINDS = ("crash", "hang", "corrupt", "oom")

#: Exit status used by injected worker crashes (distinctive in CI logs).
CRASH_EXIT_STATUS = 86


class InjectedCrash(RuntimeError):
    """Inline stand-in for a worker process dying mid-task."""


class InjectedTimeout(RuntimeError):
    """Inline stand-in for a task hanging past its deadline."""


class CorruptResultError(RuntimeError):
    """A task produced a result that failed validation."""


class ShardFailedError(RuntimeError):
    """A memoized experiment shard was degraded in a best-effort run.

    Raised by the experiment getters when a stage job the shard needs
    exhausted its retries; harnesses that can degrade gracefully catch
    it and drop the shard from their output.
    """

    def __init__(self, label: str, failure: "TaskFailure"):
        super().__init__(
            f"shard {label!r} failed after {failure.attempts} attempts "
            f"({failure.kind}: {failure.error})"
        )
        self.label = label
        self.failure = failure


class FaultToleranceError(RuntimeError):
    """A fail-fast fan-out gave up on a task that exhausted its retries."""

    def __init__(self, report: "FanoutReport"):
        failed = ", ".join(f.label for f in report.failures) or "<none>"
        super().__init__(
            f"fan-out aborted: {len(report.failures)} task(s) exhausted "
            f"their retries ({failed})"
        )
        self.report = report


class CorruptMarker:
    """Picklable sentinel a worker returns in place of a corrupted result."""

    def __init__(self, task: int):
        self.task = task

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorruptMarker(task={self.task})"


def is_corrupt(outcome: object) -> bool:
    """Whether a worker outcome is the corrupt-result sentinel."""
    return isinstance(outcome, CorruptMarker)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``kind`` at ``task``, on one or all attempts."""

    kind: str
    task: int
    attempt: int | None = 0  # None means every attempt

    def matches(self, task: int, attempt: int) -> bool:
        """Whether this fault fires for (task, attempt)."""
        if task != self.task:
            return False
        return self.attempt is None or attempt == self.attempt


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults for one fan-out."""

    specs: tuple[FaultSpec, ...] = ()
    hang_seconds: float = 3600.0

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, text: str, hang_seconds: float = 3600.0) -> "FaultPlan":
        """Parse ``kind@task[#attempt]`` entries separated by commas.

        ``attempt`` is an integer (default 0, the first attempt) or
        ``*`` for every attempt: ``"crash@1,hang@2#1,oom@0#*"``.
        """
        specs: list[FaultSpec] = []
        for raw in text.split(","):
            entry = raw.strip()
            if not entry:
                continue
            kind, sep, rest = entry.partition("@")
            if not sep or kind not in FAULT_KINDS:
                raise ValueError(
                    f"bad fault entry {entry!r}: expected kind@task[#attempt] "
                    f"with kind in {FAULT_KINDS}"
                )
            task_text, _sep, attempt_text = rest.partition("#")
            try:
                task = int(task_text)
            except ValueError:
                raise ValueError(
                    f"bad fault entry {entry!r}: task must be an integer"
                ) from None
            attempt: int | None = 0
            if attempt_text:
                if attempt_text == "*":
                    attempt = None
                else:
                    try:
                        attempt = int(attempt_text)
                    except ValueError:
                        raise ValueError(
                            f"bad fault entry {entry!r}: attempt must be "
                            "an integer or '*'"
                        ) from None
            specs.append(FaultSpec(kind=kind, task=task, attempt=attempt))
        return cls(specs=tuple(specs), hang_seconds=hang_seconds)

    @classmethod
    def from_env(cls, environ=os.environ) -> "FaultPlan":
        """The plan in ``REPRO_FAULTS``, or an empty plan when unset."""
        text = environ.get(ENV_FAULTS, "")
        if not text.strip():
            return cls()
        hang_seconds = 3600.0
        override = environ.get(ENV_HANG_SECONDS)
        if override:
            hang_seconds = float(override)
        return cls.parse(text, hang_seconds=hang_seconds)

    def fault_for(self, task: int, attempt: int) -> FaultSpec | None:
        """The first scheduled fault firing at (task, attempt), if any."""
        for spec in self.specs:
            if spec.matches(task, attempt):
                return spec
        return None

    def planned_count(self, tasks: int) -> int:
        """How many scheduled faults target tasks in a fan-out of ``tasks``."""
        return sum(1 for spec in self.specs if spec.task < tasks)


def inject(plan: FaultPlan, task: int, attempt: int, inline: bool) -> FaultSpec | None:
    """Fire the scheduled fault for (task, attempt), if any.

    Inside a worker process (``inline=False``) the faults are real: a
    crash exits the process (breaking the pool), a hang sleeps past any
    sane deadline.  In the parent process (``inline=True``) both are
    simulated with distinctive exceptions so single-job runs exercise
    the same retry machinery without killing the interpreter.

    Returns the fired ``corrupt`` spec (the caller substitutes a
    :class:`CorruptMarker` for its result) or ``None``; raises for the
    other kinds.
    """
    spec = plan.fault_for(task, attempt)
    if spec is None:
        return None
    if spec.kind == "corrupt":
        return spec
    if spec.kind == "oom":
        raise MemoryError(f"injected oom at task {task} attempt {attempt}")
    if spec.kind == "crash":
        if inline:
            raise InjectedCrash(f"injected crash at task {task}")
        os._exit(CRASH_EXIT_STATUS)
    # hang
    if inline:
        raise InjectedTimeout(f"injected hang at task {task}")
    time.sleep(plan.hang_seconds)
    raise InjectedTimeout(f"injected hang at task {task} outlived {plan.hang_seconds}s")


@dataclass(frozen=True)
class RetryPolicy:
    """How a fan-out handles failing tasks.

    Attributes:
        max_retries: Re-dispatches allowed per task beyond the first
            attempt (0 disables retries).
        task_timeout: Per-task wall-clock deadline in seconds; ``None``
            disables deadlines.  Only enforceable across the process
            boundary (``jobs > 1``) — a hung inline task cannot be
            interrupted.
        backoff: Base retry delay in seconds, doubled per attempt.
        backoff_cap: Upper bound on the un-jittered delay.
        jitter: Extra delay fraction (0..jitter), deterministic per
            (task, attempt) so reruns behave identically.
        best_effort: When True, a task that exhausts its retries is
            recorded and skipped while the remaining shards complete;
            when False (fail fast) the fan-out aborts with
            :class:`FaultToleranceError`.
    """

    max_retries: int = 2
    task_timeout: float | None = None
    backoff: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    best_effort: bool = False

    def delay(self, task: int, attempt: int) -> float:
        """Backoff before re-dispatching ``task`` after ``attempt``."""
        base = min(self.backoff * (2**attempt), self.backoff_cap)
        if base <= 0:
            return 0.0
        spread = random.Random((task + 1) * 2654435761 + attempt).random()
        return base * (1.0 + self.jitter * spread)


@dataclass
class TaskFailure:
    """One task that exhausted its retries."""

    index: int
    label: str
    kind: str  # "error" | "timeout" | "crash" | "corrupt"
    attempts: int
    error: str

    def to_dict(self) -> dict:
        """JSON-safe encoding."""
        return {
            "index": self.index,
            "label": self.label,
            "kind": self.kind,
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class FanoutReport:
    """What one resilient fan-out survived, and what it gave up on.

    ``checkpoints`` maps a failed shard's label to the pipeline stages
    already persisted in the artifact store — the work a rerun will not
    repeat (see :func:`repro.store.stages.checkpoint_coverage`).
    """

    total: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    corrupt: int = 0
    injected: int = 0
    failures: list[TaskFailure] = field(default_factory=list)
    checkpoints: dict[str, dict] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Whether any shard exhausted its retries."""
        return bool(self.failures)

    def merge(self, other: "FanoutReport") -> None:
        """Fold another fan-out's tallies into this report."""
        self.total += other.total
        self.completed += other.completed
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.crashes += other.crashes
        self.corrupt += other.corrupt
        self.injected += other.injected
        self.failures.extend(other.failures)
        self.checkpoints.update(other.checkpoints)

    def to_dict(self) -> dict:
        """JSON-safe encoding of the whole report."""
        return {
            "total": self.total,
            "completed": self.completed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "corrupt": self.corrupt,
            "injected": self.injected,
            "failures": [failure.to_dict() for failure in self.failures],
            "checkpoints": {k: dict(v) for k, v in self.checkpoints.items()},
        }

    def render(self) -> str:
        """Console partial-results summary, one failed shard per line."""
        lines = [
            f"[faults] partial results: {self.completed}/{self.total} "
            f"shards completed ({len(self.failures)} failed, "
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{self.crashes} crashes)"
        ]
        for failure in self.failures:
            lines.append(
                f"[faults]   failed shard {failure.label}: {failure.kind} "
                f"after {failure.attempts} attempt(s) — {failure.error}"
            )
            coverage = self.checkpoints.get(failure.label)
            if coverage:
                done = [stage for stage, hit in coverage.items() if hit]
                lines.append(
                    "[faults]     checkpointed stages: "
                    + (", ".join(done) if done else "none")
                )
        if self.failures:
            lines.append(
                "[faults] a rerun resumes from the artifact store and "
                "re-executes only the failed shards"
            )
        return "\n".join(lines)
