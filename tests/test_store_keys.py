"""Cache-key stability for the content-addressed artifact store.

The store's correctness hinges on its key schema: two runs with the
same inputs must land on the same digest (warm hits), and any change to
an input that can change the output — cache geometry, placer engine,
trace content, policy parameters — must land on a *different* digest
(no stale aliasing).  These tests pin both directions.
"""

from __future__ import annotations

import json

import pytest

from repro.cache.config import CacheConfig
from repro.runtime.driver import collect_stats, measure_trace, profile_workload
from repro.runtime.resolvers import CCDPResolver, NaturalResolver, RandomResolver
from repro.store import ArtifactStore, use_store
from repro.store import stages
from repro.store.artifacts import cache_stats_to_dict
from repro.store.keys import (
    canonical_json,
    code_salt,
    config_fields,
    store_key,
    trace_fingerprint,
)
from repro.trace.buffer import record_trace
from repro.workloads import make_workload
from tests.oracles import assert_same_profile


@pytest.fixture
def toy_trace(toy_workload):
    return record_trace(toy_workload, toy_workload.train_input)


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_numpy_scalars_coerce(self):
        np = pytest.importorskip("numpy")
        assert canonical_json({"n": np.int64(3)}) == canonical_json({"n": 3})
        assert canonical_json(np.float64(1.5)) == canonical_json(1.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))


class TestStoreKey:
    def test_same_fields_same_key(self):
        fields = {"trace": "abc", "cache": config_fields(CacheConfig())}
        assert store_key("profile", fields) == store_key("profile", fields)

    def test_kind_distinguishes(self):
        fields = {"trace": "abc"}
        assert store_key("profile", fields) != store_key("placement", fields)

    def test_geometry_distinguishes(self):
        base = CacheConfig(size=8192, line_size=32, associativity=1)
        variants = [
            CacheConfig(size=16384, line_size=32, associativity=1),
            CacheConfig(size=8192, line_size=64, associativity=1),
            CacheConfig(size=8192, line_size=32, associativity=2),
        ]
        base_key = store_key("profile", {"cache": config_fields(base)})
        for other in variants:
            assert (
                store_key("profile", {"cache": config_fields(other)}) != base_key
            )

    def test_salt_env_override_changes_key(self, monkeypatch):
        fields = {"trace": "abc"}
        before = store_key("profile", fields)
        monkeypatch.setenv("REPRO_CACHE_SALT", "other-version")
        assert store_key("profile", fields) != before

    def test_salt_env_override_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SALT", "pinned")
        assert code_salt() == "pinned"


class TestTraceFingerprint:
    def test_identical_rerun_same_fingerprint(self, toy_workload):
        first = record_trace(toy_workload, toy_workload.train_input)
        second = record_trace(
            type(toy_workload)(), type(toy_workload)().train_input
        )
        assert trace_fingerprint(first) == trace_fingerprint(second)

    def test_different_input_different_fingerprint(self, toy_workload):
        train = record_trace(toy_workload, toy_workload.train_input)
        test = record_trace(type(toy_workload)(), toy_workload.test_input)
        assert trace_fingerprint(train) != trace_fingerprint(test)

    def test_fingerprint_memoized(self, toy_trace):
        assert trace_fingerprint(toy_trace) is trace_fingerprint(toy_trace)

    @pytest.mark.parametrize(
        "workload, input_name, expected",
        [
            (
                "go",
                "9x9-level5",
                "bff4f625b526ca1d59b75aaa5958d864428c15cd18bbe7a8752018a648333db1",
            ),
            (
                "deltablue",
                "chain-900",
                "601ac852b763bbbb932432cb7b2a579924c284c083d06796632b0e99c75b8c37",
            ),
            (
                "gcc",
                "1recog",
                "416579d308c2f0c5b17402a68b8b395893dfd4ae44858e075eed141b843279ec",
            ),
            (
                "espresso",
                "bca",
                "b0ae2b2971ebf06e787f93192a865b7e40321bd30c2542003b0e83e9c96a1303",
            ),
            (
                "groff",
                "man-page",
                "4424f2973ac791c41619bb8d54dc20001f4e0c0ae224a9ed6dd1bf07deff84f7",
            ),
            (
                "compress",
                "bigtest-30k",
                "6dab940c55c662eaf95a99ed6fad668d83dab7e4f1c0e49d9e74cebfacfa48e6",
            ),
            (
                "m88ksim",
                "ctl-dcrand",
                "f516deab6d6005da1eb12ed90ba74cd43948c1b5f31c44116a8fb4ab9569abd5",
            ),
            (
                "fpppp",
                "natoms-4",
                "a7b8e6e12ba96e9551b8c67ca5e8fd4554c2282b3fb27ec34abced2df0c0b4e3",
            ),
            (
                "mgrid",
                "grid-32",
                "f56aaef471e87a983f593a885a9fe2f0fb49b8a8cb667b57197ed7d4797a9725",
            ),
        ],
    )
    def test_seed0_fingerprints_are_pinned(self, workload, input_name, expected):
        """The values ``bench/expected_seed0.json`` pins for these traces."""
        trace = record_trace(make_workload(workload), input_name)
        assert trace_fingerprint(trace) == expected


class TestResolverPolicy:
    def test_natural(self):
        assert stages.resolver_policy(NaturalResolver()) == {"kind": "natural"}

    def test_random_keyed_by_seed_and_pad(self):
        a = stages.resolver_policy(RandomResolver(seed=1))
        b = stages.resolver_policy(RandomResolver(seed=2))
        c = stages.resolver_policy(RandomResolver(seed=1, max_pad=4096))
        assert a != b
        assert a != c

    def test_subclass_not_recognized(self):
        class TweakedResolver(NaturalResolver):
            pass

        assert stages.resolver_policy(TweakedResolver()) is None

    def test_ccdp_keyed_by_placement_digest(
        self, toy_workload, small_cache
    ):
        from repro.runtime.driver import build_placement

        _profile, placement = build_placement(
            toy_workload, cache_config=small_cache
        )
        policy = stages.resolver_policy(CCDPResolver(placement))
        assert policy["kind"] == "ccdp"
        assert policy["placement"] == stages.placement_digest(placement)
        compact = stages.resolver_policy(
            CCDPResolver(placement, compact_heap=True)
        )
        assert compact != policy


class TestStageRoundTrip:
    def test_byte_identical_rerun_hits(self, tmp_path, toy_workload, small_cache):
        """A rerun with unchanged inputs is served entirely from disk."""
        from repro.runtime.driver import build_placement

        store = ArtifactStore(tmp_path / "store")
        trace = record_trace(toy_workload, toy_workload.train_input)
        with use_store(store):
            pair_cold = build_placement(
                toy_workload, cache_config=small_cache, trace=trace
            )
        assert store.counters.writes >= 2  # profile + placement

        rerun = ArtifactStore(tmp_path / "store")
        fresh_trace = record_trace(
            type(toy_workload)(), toy_workload.train_input
        )
        with use_store(rerun):
            pair_warm = build_placement(
                type(toy_workload)(), cache_config=small_cache, trace=fresh_trace
            )
        assert rerun.counters.misses == 0
        assert rerun.counters.hits >= 2
        assert rerun.counters.writes == 0
        assert pair_warm[0] == pair_cold[0]
        from repro.profiling.serialize import placement_to_dict

        assert placement_to_dict(pair_warm[1]) == placement_to_dict(pair_cold[1])

    def test_geometry_change_misses(self, tmp_path, toy_workload, small_cache):
        from repro.runtime.driver import build_placement

        store = ArtifactStore(tmp_path / "store")
        trace = record_trace(toy_workload, toy_workload.train_input)
        with use_store(store):
            build_placement(toy_workload, cache_config=small_cache, trace=trace)
            hits_before = store.counters.hits
            build_placement(
                toy_workload,
                cache_config=CacheConfig(size=2048, line_size=32, associativity=1),
                trace=trace,
            )
        assert store.counters.hits == hits_before  # nothing aliased

    def test_trace_content_distinguishes(self, toy_workload, small_cache):
        train = record_trace(toy_workload, toy_workload.train_input)
        test = record_trace(type(toy_workload)(), toy_workload.test_input)
        params = stages.profile_params()
        keys = {
            store_key(
                stages.KIND_PROFILE,
                stages._profile_fields(
                    trace_fingerprint(trace), small_cache, params
                ),
            )
            for trace in (train, test)
        }
        assert len(keys) == 2


class TestTypedPayloadRoundTrip:
    """Store entries decode to the computed artifacts, dict order included.

    Profiles, stats and measurements travel through the store as array
    blocks; downstream tie-breaking and the benchmark's stats digests
    iterate their dicts, so a decoded artifact must iterate like the
    computed one.
    """

    def test_deltablue_round_trip(self, tmp_path):
        workload = make_workload("deltablue")
        trace = record_trace(workload, workload.train_input)
        config = CacheConfig(size=8192, line_size=32, associativity=1)

        def run(store):
            with use_store(store):
                profile = profile_workload(
                    workload, workload.train_input, config, trace=trace
                )
                stats = collect_stats(workload, workload.train_input, trace=trace)
                measured = measure_trace(
                    trace,
                    NaturalResolver(),
                    config,
                    classify=True,
                    track_pages=True,
                )
            return profile, stats, measured

        computed = run(ArtifactStore(tmp_path / "store"))
        rerun = ArtifactStore(tmp_path / "store")
        profile, stats, measured = run(rerun)
        assert rerun.counters.hits == 3
        assert rerun.counters.misses == rerun.counters.writes == 0

        assert_same_profile(profile, computed[0])
        for name in ("refs_by_object", "object_sizes", "object_categories"):
            decoded, fresh = getattr(stats, name), getattr(computed[1], name)
            assert list(decoded.items()) == list(fresh.items()), name
        assert stats == computed[1]
        for name in ("accesses_by_object", "misses_by_object"):
            decoded = getattr(measured.cache, name)
            fresh = getattr(computed[2].cache, name)
            assert list(decoded.items()) == list(fresh.items()), name
        assert measured.paging == computed[2].paging
        assert json.dumps(cache_stats_to_dict(measured.cache)) == json.dumps(
            cache_stats_to_dict(computed[2].cache)
        )
