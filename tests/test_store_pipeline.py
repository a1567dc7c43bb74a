"""Incremental pipeline execution on top of the artifact store.

A second run of the same experiment against a warm store must (a) never
execute the workload, (b) report zero misses, and (c) reproduce the cold
run's results bit-for-bit.  The job graph must serve warm stages from
the store and execute only the cold remainder.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import clear_cache
from repro.profiling.serialize import placement_to_dict
from repro.runtime.driver import run_experiment
from repro.runtime.parallel import ExperimentSpec
from repro.sched.executor import run_experiments_dag
from repro.store import ArtifactStore, use_store
from repro.workloads import make_workload


def assert_same_experiment(first, second):
    assert placement_to_dict(first.placement) == placement_to_dict(
        second.placement
    )
    assert first.profile == second.profile
    for arm in ("original", "ccdp", "random"):
        a, b = getattr(first, arm), getattr(second, arm)
        if a is None:
            assert b is None
            continue
        assert a.cache == b.cache
        assert a.paging == b.paging


class TestWarmExperiment:
    @pytest.mark.parametrize("classify,track_pages", [(False, False), (True, True)])
    def test_second_run_is_all_hits(self, tmp_path, classify, track_pages):
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            cold = run_experiment(
                make_workload("compress"),
                include_random=True,
                classify=classify,
                track_pages=track_pages,
            )
        warm_store = ArtifactStore(root)
        with use_store(warm_store):
            warm = run_experiment(
                make_workload("compress"),
                include_random=True,
                classify=classify,
                track_pages=track_pages,
            )
        assert warm_store.counters.misses == 0
        assert warm_store.counters.writes == 0
        assert warm_store.counters.hits > 0
        assert_same_experiment(cold, warm)

    def test_warm_run_never_executes_workload(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            run_experiment(make_workload("compress"))

        def boom(self, sink, input_name):
            raise AssertionError("workload ran on a warm store")

        with use_store(ArtifactStore(root)):
            workload = make_workload("compress")
            monkeypatch.setattr(type(workload), "run", boom)
            run_experiment(workload)

    def test_scalar_engine_bypasses_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with use_store(store):
            run_experiment(make_workload("compress"), engine="scalar")
        assert store.counters.hits == 0
        assert store.counters.writes == 0


class TestWarmFanOut:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        clear_cache()
        yield
        clear_cache()

    def test_run_experiments_serves_warm_shards_inline(self, tmp_path):
        specs = [
            ExperimentSpec(workload="compress"),
            ExperimentSpec(workload="deltablue"),
        ]
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            cold, _graph, _summary = run_experiments_dag(specs, jobs=1)
        clear_cache()
        warm_store = ArtifactStore(root)
        with use_store(warm_store):
            warm, _graph, summary = run_experiments_dag(specs, jobs=2)
        assert summary.executed == 0
        assert warm_store.counters.misses == 0
        for first, second in zip(cold, warm):
            assert_same_experiment(first, second)

    def test_partial_warm_dispatches_only_cold(self, tmp_path):
        root = tmp_path / "store"
        with use_store(ArtifactStore(root)):
            run_experiments_dag([ExperimentSpec(workload="compress")], jobs=1)
        clear_cache()
        mixed_store = ArtifactStore(root)
        specs = [
            ExperimentSpec(workload="compress"),
            ExperimentSpec(workload="deltablue"),
        ]
        with use_store(mixed_store):
            results, graph, _summary = run_experiments_dag(specs, jobs=1)
        assert [result.workload for result in results] == ["compress", "deltablue"]
        executed = {
            job.spec.workload
            for job in graph
            if job.kind != "aggregate" and job.state == "done"
        }
        assert executed == {"deltablue"}
        # The deltablue shard computed fresh and persisted its stages.
        assert mixed_store.counters.writes > 0
        clear_cache()
        rerun_store = ArtifactStore(root)
        with use_store(rerun_store):
            run_experiments_dag(specs, jobs=1)
        assert rerun_store.counters.misses == 0


class TestGcPins:
    """``repro cache gc`` must not collect fingerprints a live daemon pinned."""

    def _seed_trace(self, store):
        from repro.store import remember_and_save
        from repro.trace.buffer import record_trace

        workload = make_workload("compress")
        trace = record_trace(workload, "smalltest")
        return remember_and_save(store, "compress", "smalltest", trace)

    def test_gc_spares_pinned_trace(self, tmp_path):
        from repro.store import load_trace_by_fingerprint, trace_data_path

        store = ArtifactStore(tmp_path / "store")
        fingerprint = self._seed_trace(store)
        store.pin_trace(fingerprint)
        # Aggressive gc from a *second* store handle (as `repro cache gc`
        # in another process would open): age and byte pressure together
        # would normally evict everything.
        gc_store = ArtifactStore(tmp_path / "store")
        gc_store.gc(max_bytes=0, max_age_days=0.0)
        assert load_trace_by_fingerprint(store, fingerprint) is not None
        assert trace_data_path(store, fingerprint).exists()

    def test_gc_collects_after_unpin(self, tmp_path):
        from repro.store import trace_data_path

        store = ArtifactStore(tmp_path / "store")
        fingerprint = self._seed_trace(store)
        store.pin_trace(fingerprint)
        store.unpin_trace(fingerprint)
        store.gc(max_bytes=0, max_age_days=0.0)
        assert not trace_data_path(store, fingerprint).exists()

    def test_stale_pin_from_dead_pid_is_swept(self, tmp_path):
        from repro.store import trace_data_path

        store = ArtifactStore(tmp_path / "store")
        fingerprint = self._seed_trace(store)
        # Forge a pin from a pid that cannot be alive.
        store.pins_dir.mkdir(parents=True, exist_ok=True)
        dead = store.pins_dir / f"{fingerprint}.999999999.pin"
        dead.write_text("999999999\n")
        assert store.pinned_fingerprints() == set()
        assert not dead.exists()
        store.gc(max_bytes=0, max_age_days=0.0)
        assert not trace_data_path(store, fingerprint).exists()

    def test_release_pins_drops_only_this_process(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        fingerprint = self._seed_trace(store)
        store.pin_trace(fingerprint)
        foreign = store.pins_dir / f"{fingerprint}.1.pin"
        foreign.write_text("1\n")  # pid 1 is always alive
        assert store.release_pins() == 1
        assert foreign.exists()
        assert store.pinned_fingerprints() == {fingerprint}
