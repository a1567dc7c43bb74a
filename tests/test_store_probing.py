"""Probe-mode lookups: one counter source of truth for warm reloads.

A probe is a batch of speculative store reads whose outcome only counts
as a whole.  These tests pin the contract: lookups made under
``store.probing()`` leave the real hit/miss counters untouched until the
caller commits, a failed probe commits nothing, and a committed probe
folds only its hits (the fallback path accounts for its own misses).
"""

from repro.experiments import (
    clear_cache,
    run_random_vs_natural,
    run_table1,
    run_table2,
)
from repro.store import ArtifactStore, use_store


def _put(store, kind, fields, payload):
    digest = store.key(kind, fields)
    store.put(kind, digest, fields, payload)
    return digest


class TestProbeTally:
    def test_probe_lookups_do_not_touch_counters(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        digest = _put(store, "profile", {"w": "a"}, {"v": 1})
        with store.probing() as probe:
            assert store.get("profile", digest) == {"v": 1}
            assert store.get("profile", "0" * 64) is None
        assert probe.hits == 1
        assert probe.misses == 1
        assert store.counters.hits == 0
        assert store.counters.misses == 0

    def test_abandoned_probe_commits_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        digest = _put(store, "profile", {"w": "a"}, {"v": 1})
        with store.probing():
            store.get("profile", digest)
            store.get("profile", "0" * 64)  # miss abandons the warm path
        assert store.counters.hits == 0
        assert store.counters.misses == 0

    def test_commit_folds_hits_only(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = _put(store, "profile", {"w": "a"}, {"v": 1})
        second = _put(store, "placement", {"w": "a"}, {"v": 2})
        with store.probing() as probe:
            store.get("profile", first)
            store.get("placement", second)
            store.get("profile", "0" * 64)
        probe.commit()
        probe.commit()  # idempotent
        assert store.counters.hits == 2
        assert store.counters.misses == 0

    def test_misses_outside_probe_count_immediately(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.get("profile", "0" * 64) is None
        assert store.counters.misses == 1

    def test_corrupt_entry_counts_even_under_probe(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        digest = _put(store, "profile", {"w": "a"}, {"v": 1})
        path = store.entry_path("profile", digest)
        path.write_text("{not json")
        with store.probing() as probe:
            assert store.get("profile", digest) is None
        # The entry really was discarded: corruption is never deferred.
        assert store.counters.corrupt == 1
        assert not path.exists()
        assert probe.misses == 1
        assert store.counters.misses == 0

    def test_probes_nest_innermost_wins(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        digest = _put(store, "profile", {"w": "a"}, {"v": 1})
        with store.probing() as outer:
            with store.probing() as inner:
                store.get("profile", digest)
            store.get("profile", digest)
        assert inner.hits == 1
        assert outer.hits == 1
        assert store.counters.hits == 0


class TestPipelineTallies:
    """The harness getters' warm loads are probes, not counted lookups."""

    def _tables(self):
        run_table1(["deltablue"])
        run_table2(["deltablue"])
        run_random_vs_natural(["deltablue"])

    def test_cold_run_counts_one_miss_per_write(self, tmp_path):
        root = tmp_path / "store"
        clear_cache()
        cold = ArtifactStore(root)
        with use_store(cold):
            self._tables()
        assert cold.counters.writes > 0
        assert cold.counters.misses == cold.counters.writes

        clear_cache()
        warm = ArtifactStore(root)
        with use_store(warm):
            self._tables()
        clear_cache()
        assert warm.counters.misses == 0
        assert warm.counters.writes == 0
        assert warm.counters.hits > 0
