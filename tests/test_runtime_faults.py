"""Fault-tolerant fan-out: retries, timeouts, crashes, degradation.

The resilient executor is exercised two ways: directly through
``_resilient_map`` with tiny picklable workers (fast, covers every
retry/degradation path in isolation) and end-to-end through the job
graph (``run_experiments_dag``/``run_table2``) with injected faults
(proves a faulted sweep produces the same results as a clean one).

Pooled fault injection works because Linux forks workers: the
``REPRO_FAULTS`` value set via monkeypatch is inherited by the pool's
child processes and re-read inside ``_pool_entry``.
"""

import multiprocessing
import time

import pytest

from repro.experiments.common import clear_cache, set_parallel_jobs
from repro.experiments.missrate_tables import run_table2
from repro.runtime import faults, parallel
from repro.runtime.faults import (
    FaultPlan,
    FaultSpec,
    FaultToleranceError,
    RetryPolicy,
    ShardFailedError,
)
from repro.runtime.parallel import ExperimentSpec
from repro.sched.executor import run_experiments_dag


@pytest.fixture(autouse=True)
def _clean_fanout_state(monkeypatch):
    """Each test starts with no faults, default policy, empty caches."""
    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    monkeypatch.delenv(faults.ENV_HANG_SECONDS, raising=False)
    parallel.set_retry_policy(RetryPolicy())
    parallel.reset_fanout_reports()
    clear_cache()
    set_parallel_jobs(1)
    yield
    parallel.set_retry_policy(RetryPolicy())
    parallel.reset_fanout_reports()
    clear_cache()
    set_parallel_jobs(1)


# -- picklable toy workers (pool entries must be module-level) ----------------


def _pool_square(value):
    """Pool worker: outcome is ``(result, telemetry_payload)``."""
    return value * value, None


def _inline_square(value):
    return value * value


def _pool_fail_odd(value):
    if value % 2:
        raise ValueError(f"odd value {value}")
    return value * value, None


def _squares(values, jobs, policy=None):
    labels = [f"task{value}" for value in values]
    return parallel._resilient_map(
        list(values), labels, _pool_square, _inline_square, jobs, policy
    )


# -- plan parsing -------------------------------------------------------------


class TestFaultPlan:
    def test_parse_entries(self):
        plan = FaultPlan.parse("crash@1,hang@2#1,oom@0#*, corrupt@3 ")
        assert plan.specs == (
            FaultSpec("crash", 1, 0),
            FaultSpec("hang", 2, 1),
            FaultSpec("oom", 0, None),
            FaultSpec("corrupt", 3, 0),
        )

    def test_parse_rejects_bad_entries(self):
        for text in ("explode@1", "crash", "crash@x", "crash@1#y"):
            with pytest.raises(ValueError):
                FaultPlan.parse(text)

    def test_wildcard_attempt_matches_every_attempt(self):
        plan = FaultPlan.parse("oom@2#*")
        assert plan.fault_for(2, 0) is not None
        assert plan.fault_for(2, 7) is not None
        assert plan.fault_for(1, 0) is None

    def test_default_attempt_is_first_only(self):
        plan = FaultPlan.parse("crash@1")
        assert plan.fault_for(1, 0) is not None
        assert plan.fault_for(1, 1) is None

    def test_from_env(self):
        plan = FaultPlan.from_env(
            {faults.ENV_FAULTS: "hang@0", faults.ENV_HANG_SECONDS: "2.5"}
        )
        assert plan.specs == (FaultSpec("hang", 0, 0),)
        assert plan.hang_seconds == 2.5
        assert not FaultPlan.from_env({})

    def test_planned_count_ignores_out_of_range_tasks(self):
        plan = FaultPlan.parse("crash@0,oom@7")
        assert plan.planned_count(3) == 1
        assert plan.planned_count(8) == 2


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.delay(3, 1) == policy.delay(3, 1)
        assert policy.delay(3, 1) != policy.delay(4, 1)

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(backoff=0.1, backoff_cap=0.4, jitter=0.0)
        assert policy.delay(0, 0) == pytest.approx(0.1)
        assert policy.delay(0, 1) == pytest.approx(0.2)
        assert policy.delay(0, 10) == pytest.approx(0.4)

    def test_zero_backoff_means_no_delay(self):
        assert RetryPolicy(backoff=0.0).delay(5, 2) == 0.0


# -- inline (jobs=1) retry machinery ------------------------------------------


class TestInlineResilience:
    def test_retry_heals_transient_fault(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@1")
        policy = RetryPolicy(backoff=0.0)
        results, report = _squares([2, 3, 4], jobs=1, policy=policy)
        assert results == [4, 9, 16]
        assert report.retries == 1
        assert report.completed == 3
        assert not report.degraded

    def test_best_effort_leaves_hole_and_records_failure(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@1#*")
        policy = RetryPolicy(max_retries=1, backoff=0.0, best_effort=True)
        results, report = _squares([2, 3, 4], jobs=1, policy=policy)
        assert results == [4, None, 16]
        assert [f.label for f in report.failures] == ["task3"]
        assert report.failures[0].attempts == 2
        assert report.degraded

    def test_fail_fast_raises_with_report(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@0#*")
        policy = RetryPolicy(max_retries=0, best_effort=False)
        with pytest.raises(FaultToleranceError) as info:
            _squares([2, 3], jobs=1, policy=policy)
        assert [f.label for f in info.value.report.failures] == ["task2"]

    def test_inline_crash_and_hang_are_simulated(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "crash@0,hang@1")
        policy = RetryPolicy(backoff=0.0)
        results, report = _squares([2, 3], jobs=1, policy=policy)
        assert results == [4, 9]
        assert report.crashes == 1
        assert report.timeouts == 1
        assert report.retries == 2

    def test_report_accumulates_in_module_state(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@0")
        _squares([5], jobs=1, policy=RetryPolicy(backoff=0.0))
        report = parallel.last_fanout_report()
        assert report is not None
        assert report.retries == 1
        assert report.injected == 1


# -- pooled (jobs>1) retry machinery ------------------------------------------


class TestPooledResilience:
    def test_worker_exception_retries_then_degrades(self):
        policy = RetryPolicy(max_retries=1, backoff=0.0, best_effort=True)
        results, report = parallel._resilient_map(
            [2, 3, 4],
            ["task2", "task3", "task4"],
            _pool_fail_odd,
            lambda v: v * v,
            jobs=2,
            policy=policy,
        )
        assert results == [4, None, 16]
        assert [f.label for f in report.failures] == ["task3"]
        assert report.retries == 1

    def test_injected_oom_heals_via_retry(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@0")
        results, report = _squares(
            [2, 3, 4], jobs=2, policy=RetryPolicy(backoff=0.0)
        )
        assert results == [4, 9, 16]
        assert report.retries >= 1
        assert report.completed == 3

    def test_worker_crash_respawns_pool(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "crash@0")
        results, report = _squares(
            [2, 3, 4], jobs=2, policy=RetryPolicy(backoff=0.0)
        )
        assert results == [4, 9, 16]
        assert report.crashes >= 1
        assert report.completed == 3

    def test_hung_worker_hits_deadline(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "hang@1")
        monkeypatch.setenv(faults.ENV_HANG_SECONDS, "600")
        policy = RetryPolicy(task_timeout=0.5, backoff=0.0)
        began = time.monotonic()
        results, report = _squares([2, 3, 4], jobs=2, policy=policy)
        assert results == [4, 9, 16]
        assert report.timeouts >= 1
        assert time.monotonic() - began < 30.0

    def test_corrupt_result_is_rejected_and_retried(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "corrupt@0")
        results, report = _squares(
            [2, 3], jobs=2, policy=RetryPolicy(backoff=0.0)
        )
        assert results == [4, 9]
        assert report.corrupt == 1
        assert report.retries == 1

    def test_best_effort_preserves_result_ordering(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@2#*")
        policy = RetryPolicy(max_retries=0, backoff=0.0, best_effort=True)
        results, report = _squares([2, 3, 4, 5, 6], jobs=2, policy=policy)
        assert results == [4, 9, None, 25, 36]
        assert [f.label for f in report.failures] == ["task4"]

    def test_failing_shard_does_not_orphan_workers(self, monkeypatch):
        """Regression: mid-dispatch abort must not leak pool processes."""
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@1#*")
        policy = RetryPolicy(max_retries=0, best_effort=False)
        with pytest.raises(FaultToleranceError):
            _squares([2, 3, 4, 5], jobs=2, policy=policy)
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, (
                f"leaked workers: {multiprocessing.active_children()}"
            )
            time.sleep(0.05)


# -- end-to-end: experiments under injection ----------------------------------


class TestExperimentFanout:
    def test_injected_faults_do_not_change_results(self, monkeypatch):
        specs = [
            ExperimentSpec(workload="compress", same_input=True),
            ExperimentSpec(workload="espresso", same_input=True),
        ]
        clean, _graph, _summary = run_experiments_dag(specs, jobs=2)
        clear_cache()
        monkeypatch.setenv(faults.ENV_FAULTS, "crash@0")
        parallel.set_retry_policy(RetryPolicy(backoff=0.0))
        faulted, _graph, _summary = run_experiments_dag(specs, jobs=2)
        report = parallel.last_fanout_report()
        assert report.crashes >= 1
        for clean_result, faulted_result in zip(clean, faulted):
            assert (
                faulted_result.ccdp.cache.miss_rate
                == clean_result.ccdp.cache.miss_rate
            )
            assert (
                faulted_result.original.cache.miss_rate
                == clean_result.original.cache.miss_rate
            )

    def test_degraded_shard_is_skipped_in_table(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@1#*")
        parallel.set_retry_policy(
            RetryPolicy(max_retries=0, backoff=0.0, best_effort=True)
        )
        set_parallel_jobs(2)
        table = run_table2(programs=["compress", "espresso", "deltablue"])
        assert table.skipped == ["espresso"]
        assert [row.program for row in table.rows] == ["compress", "deltablue"]
        assert "skipped after retry exhaustion: espresso" in table.render()
        with pytest.raises(ShardFailedError):
            from repro.experiments.common import cached_experiment

            cached_experiment("espresso", same_input=True)

    def test_partial_results_summary_counts_specs(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv(faults.ENV_FAULTS, "oom@1#*")
        argv = [
            "tables", "table2", "--programs", "compress,espresso,deltablue",
            "--jobs", "2", "--cache-dir", str(tmp_path / "store"),
            "--best-effort", "--max-retries", "1",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert (
            "partial results: 2/3 shards completed (1 failed, 1 retries,"
            in captured.err
        )
        assert "failed shard espresso" in captured.err
        assert "skipped after retry exhaustion: espresso" in captured.out


class TestPayloadGuard:
    """Fan-out payloads stay handle-sized; bulk data fails fast by name."""

    def test_experiment_specs_are_handle_sized(self):
        import pickle

        specs = [
            ExperimentSpec(workload=name, same_input=True)
            for name in ("compress", "espresso", "deltablue")
        ]
        for spec in specs:
            assert len(pickle.dumps(spec)) < 4096

    def test_oversized_payload_fails_fast_with_task_named(self):
        blob = b"x" * (parallel.MAX_TASK_PAYLOAD_BYTES + 1)
        with pytest.raises(parallel.TaskPayloadError, match="task-big"):
            parallel._check_payloads([(1,), (blob,)], ["task-small", "task-big"])

    def test_payload_sizes_are_observed(self):
        from repro.obs import Telemetry, use

        registry = Telemetry()
        with use(registry):
            parallel._check_payloads([(1,), (2, 3)], ["a", "b"])
        assert registry.counters["fanout.payload_bytes"] > 0
        assert registry.gauges["fanout.payload.max_bytes"] > 0

    def test_env_override_and_disable(self, monkeypatch):
        monkeypatch.setenv(parallel.MAX_TASK_PAYLOAD_ENV, "16")
        assert parallel.max_task_payload_bytes() == 16
        with pytest.raises(parallel.TaskPayloadError):
            parallel._check_payloads([("a" * 64,)], ["tiny-cap"])
        monkeypatch.setenv(parallel.MAX_TASK_PAYLOAD_ENV, "0")
        parallel._check_payloads([("a" * 64,)], ["disabled"])  # no raise
        monkeypatch.setenv(parallel.MAX_TASK_PAYLOAD_ENV, "junk")
        assert (
            parallel.max_task_payload_bytes() == parallel.MAX_TASK_PAYLOAD_BYTES
        )

    def test_pooled_fanout_rejects_bulk_data_before_spawning(self):
        blob = b"y" * (parallel.MAX_TASK_PAYLOAD_BYTES + 1)
        with pytest.raises(parallel.TaskPayloadError):
            parallel._resilient_map(
                [(blob,)], ["bulk"], _pool_square, _inline_square, jobs=2
            )
