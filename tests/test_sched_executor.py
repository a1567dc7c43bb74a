"""DAG executor end-to-end: equality, warm resume, fault handling.

The graph-shaped dispatcher must be invisible in the results: whatever
:func:`repro.runtime.driver.run_experiment` computes for each spec, the
DAG path must reproduce bit-for-bit — store-less, cold-with-store, and
warm (where it additionally schedules *zero* stage executions and reads
each store entry once).  Failures ride the retry/best-effort machinery,
and a store-less parallel run works in a scratch store it removes.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import clear_cache
from repro.runtime import faults, parallel
from repro.runtime.driver import run_experiment
from repro.runtime.faults import FaultToleranceError, RetryPolicy
from repro.runtime.parallel import ExperimentSpec
from repro.sched import executor
from repro.sched import jobs as sched_jobs
from repro.sched.executor import last_summary, run_experiments_dag
from repro.store import ArtifactStore, use_store
from repro.workloads import make_workload
from tests.test_store_pipeline import assert_same_experiment


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_cache()
    yield
    clear_cache()


def _specs():
    return [
        ExperimentSpec(workload="deltablue", same_input=True),
        ExperimentSpec(workload="deltablue", same_input=False),
    ]


def _per_spec(specs):
    """The oracle: one standalone pipeline run per spec."""
    results = []
    for spec in specs:
        workload = make_workload(spec.workload)
        results.append(
            run_experiment(
                workload,
                test_input=workload.train_input if spec.same_input else None,
                cache_config=spec.cache_config,
            )
        )
    return results


class TestEquality:
    def test_storeless_inline_matches_coarse_path(self):
        direct = _per_spec(_specs())
        clear_cache()
        via_dag, graph, summary = run_experiments_dag(_specs(), jobs=1)
        for first, second in zip(direct, via_dag):
            assert_same_experiment(first, second)
        assert summary.executed > 0
        assert summary.failed == 0
        # Table 2 and Table 4 share the training trace/profile/placement.
        assert summary.deduped == 3

    def test_cold_store_run_matches_coarse_path(self, tmp_path):
        with use_store(ArtifactStore(tmp_path / "a")):
            direct = _per_spec(_specs())
        clear_cache()
        with use_store(ArtifactStore(tmp_path / "b")):
            via_dag, _, summary = run_experiments_dag(_specs(), jobs=1)
        for first, second in zip(direct, via_dag):
            assert_same_experiment(first, second)
        assert summary.pruned == 0

    def test_last_summary_tracks_most_recent_run(self):
        _, _, summary = run_experiments_dag(_specs()[:1], jobs=1)
        assert last_summary() is summary


class TestWarmResume:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            cold, _, cold_summary = run_experiments_dag(_specs(), jobs=1)
        assert cold_summary.executed > 0
        clear_cache()
        warm_store = ArtifactStore(root)
        with use_store(warm_store):
            warm, _, warm_summary = run_experiments_dag(_specs(), jobs=1)
        assert warm_summary.executed == 0
        assert warm_summary.pruned > 0
        assert warm_summary.failed == 0
        # One counter source of truth: a fully-warm resume is all hits.
        assert warm_store.counters.misses == 0
        assert warm_store.counters.hits > 0
        for first, second in zip(cold, warm):
            assert_same_experiment(first, second)

    def test_warm_graph_reads_each_entry_once(self, tmp_path, monkeypatch):
        specs = [
            ExperimentSpec(workload=name, same_input=same_input)
            for same_input in (True, False)
            for name in ("compress", "deltablue")
        ]
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            cold, _, _ = run_experiments_dag(specs, jobs=1)
        clear_cache()
        reads: list[tuple[str, str]] = []
        assembling = []
        original_get = ArtifactStore.get
        original_assemble = sched_jobs.assemble_experiment

        def counting_get(self, kind, digest):
            reads.append((kind, digest))
            if assembling:
                raise AssertionError("assembly read the store")
            return original_get(self, kind, digest)

        def watched_assemble(*args, **kwargs):
            assembling.append(True)
            try:
                return original_assemble(*args, **kwargs)
            finally:
                assembling.pop()

        monkeypatch.setattr(ArtifactStore, "get", counting_get)
        monkeypatch.setattr(sched_jobs, "assemble_experiment", watched_assemble)
        with use_store(ArtifactStore(root)):
            warm, _, summary = run_experiments_dag(specs, jobs=1)
        assert summary.executed == 0
        assert len(reads) == len(set(reads))
        # Per program: two trace-meta entries, one profile, one placement
        # and four measurements (two arms on each input); no trace entry.
        assert len(reads) == 2 * 8
        assert all(kind != "trace" for kind, _digest in reads)
        for first, second in zip(cold, warm):
            assert_same_experiment(first, second)

    def test_partially_warm_graph_runs_only_the_cold_jobs(self, tmp_path):
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            run_experiments_dag(_specs()[:1], jobs=1)
        clear_cache()
        with use_store(ArtifactStore(root)):
            _, graph, summary = run_experiments_dag(_specs(), jobs=1)
        # The table-2 half is warm; only table-4's extra jobs execute.
        assert summary.pruned > 0
        assert 0 < summary.executed < summary.total
        assert summary.failed == 0


class TestFaults:
    def test_transient_fault_heals_via_retry(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@0")
        policy = RetryPolicy(backoff=0.0)
        results, _, summary = run_experiments_dag(
            _specs()[:1], jobs=1, policy=policy
        )
        assert results[0] is not None
        assert summary.failed == 0

    def test_permanent_fault_cancels_downstream_best_effort(
        self, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@0#*")
        policy = RetryPolicy(max_retries=1, backoff=0.0, best_effort=True)
        results, graph, summary = run_experiments_dag(
            _specs()[:1], jobs=1, policy=policy
        )
        assert results == [None]
        assert summary.failed == 1
        assert summary.cancelled >= 1
        report = parallel.last_fanout_report()
        assert report is not None
        assert [f.label for f in report.failures] == ["deltablue"]

    def test_permanent_fault_raises_under_fail_fast(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@0#*")
        policy = RetryPolicy(max_retries=0, backoff=0.0, best_effort=False)
        with pytest.raises(FaultToleranceError):
            run_experiments_dag(_specs()[:1], jobs=1, policy=policy)


class TestScratchStore:
    """Store-less parallel runs pool their jobs through a scratch store."""

    @pytest.fixture
    def scratch_parent(self, tmp_path, monkeypatch):
        import tempfile

        parent = tmp_path / "tmp"
        parent.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(parent))
        monkeypatch.setattr(executor, "_effective_cpus", lambda: 2)
        return parent

    def _pooled_calls(self, monkeypatch) -> list:
        calls = []
        pooled_map = parallel._pooled_map

        def spy(*args, **kwargs):
            calls.append(args[3])  # jobs
            return pooled_map(*args, **kwargs)

        monkeypatch.setattr(parallel, "_pooled_map", spy)
        return calls

    def test_storeless_parallel_run_uses_a_pool(self, scratch_parent, monkeypatch):
        calls = self._pooled_calls(monkeypatch)
        direct = _per_spec(_specs())
        clear_cache()
        results, _, summary = run_experiments_dag(_specs(), jobs=2)
        assert calls == [2]
        assert summary.executed > 0
        for first, second in zip(direct, results):
            assert_same_experiment(first, second)
        assert list(scratch_parent.iterdir()) == []

    def test_scratch_store_is_removed_after_a_crash(
        self, scratch_parent, monkeypatch
    ):
        calls = self._pooled_calls(monkeypatch)
        monkeypatch.setenv(faults.ENV_FAULTS, "crash@0")
        results, _, summary = run_experiments_dag(
            _specs()[:1], jobs=2, policy=RetryPolicy(backoff=0.0)
        )
        assert calls == [2]
        assert results[0] is not None
        assert summary.failed == 0
        assert parallel.last_fanout_report().crashes >= 1
        assert list(scratch_parent.iterdir()) == []

    def test_scratch_store_is_removed_when_the_run_aborts(
        self, scratch_parent, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_FAULTS, "oom@0#*")
        policy = RetryPolicy(max_retries=0, backoff=0.0, best_effort=False)
        with pytest.raises(FaultToleranceError):
            run_experiments_dag(_specs()[:1], jobs=2, policy=policy)
        assert list(scratch_parent.iterdir()) == []
