"""Tests for the time-sampled TRG profiler."""

from __future__ import annotations

import pytest

from repro.core.algorithm import CCDPPlacer
from repro.profiling.sampling import sampled_profile, sampling_ratio
from repro.runtime.driver import measure, profile_workload
from repro.runtime.resolvers import CCDPResolver
from repro.trace.buffer import record_trace
from repro.workloads import make_workload, workload_names
from tests.oracles import SamplingProfilerSink, assert_same_profile


def _sampled(workload, cache, window, period):
    profile = sampled_profile(
        workload, window=window, period=period, cache_config=cache
    )
    return profile, sampling_ratio(profile.total_accesses, window, period)


class TestSamplingMechanics:
    def test_invalid_window_rejected(self, toy_workload):
        with pytest.raises(ValueError):
            sampled_profile(toy_workload, window=0, period=10)
        with pytest.raises(ValueError):
            sampled_profile(toy_workload, window=20, period=10)

    def test_full_window_equals_exact_profiler(self, toy_workload, small_cache):
        exact = profile_workload(toy_workload, toy_workload.train_input, small_cache)
        sampled, ratio = _sampled(toy_workload, small_cache, 10, 10)
        assert_same_profile(sampled, exact)
        assert ratio == pytest.approx(1.0)

    def test_sampling_ratio_matches_pattern(self, toy_workload, small_cache):
        _profile, ratio = _sampled(toy_workload, small_cache, 100, 400)
        assert ratio == pytest.approx(0.25, abs=0.02)

    def test_name_profile_is_exact_despite_sampling(
        self, toy_workload, small_cache
    ):
        exact = profile_workload(toy_workload, toy_workload.train_input, small_cache)
        sampled, _ratio = _sampled(toy_workload, small_cache, 50, 500)
        for eid, entity in exact.entities.items():
            assert sampled.entities[eid].refs == entity.refs

    def test_weights_scaled_to_full_run_magnitude(self, toy_workload, small_cache):
        exact = profile_workload(toy_workload, toy_workload.train_input, small_cache)
        sampled, _ratio = _sampled(toy_workload, small_cache, 200, 400)
        exact_total = int(exact.trg_columns.weight.sum())
        sampled_total = int(sampled.trg_columns.weight.sum())
        assert sampled_total == pytest.approx(exact_total, rel=0.5)

    def test_fewer_edges_than_exhaustive(self, toy_workload, small_cache):
        exact = profile_workload(toy_workload, toy_workload.train_input, small_cache)
        sampled, _ratio = _sampled(toy_workload, small_cache, 20, 400)
        assert len(sampled.trg_columns.weight) <= len(exact.trg_columns.weight)


class TestSampledPlacementQuality:
    def test_sampled_profile_still_yields_good_placement(
        self, toy_workload, small_cache
    ):
        """The paper's hope: sampling keeps most of the placement value."""
        profile = sampled_profile(
            toy_workload, window=100, period=300, cache_config=small_cache
        )
        placement = CCDPPlacer(profile, small_cache).place()
        from repro.runtime.resolvers import NaturalResolver

        natural = measure(
            toy_workload, toy_workload.test_input,
            NaturalResolver(), small_cache,
        ).cache.miss_rate
        sampled = measure(
            toy_workload, toy_workload.test_input,
            CCDPResolver(placement), small_cache,
        ).cache.miss_rate
        assert sampled <= natural * 1.05


#: (window, period) patterns: the CLI default, an uneven one, every
#: other reference, and the exhaustive window.
PATTERNS = ((10_000, 50_000), (1_000, 7_000), (1, 2), (10_000, 10_000))


@pytest.mark.parametrize("program", workload_names())
def test_sampled_profile_matches_per_event_sampler(program):
    """The column sampler == the per-event sampler, edge order included.

    Same entities, ``total_accesses``, edges in insertion order after
    the weight scaling, and the ratio line ``repro profile --sample``
    prints.
    """
    workload = make_workload(program)
    trace = record_trace(workload, workload.train_input)
    for window, period in PATTERNS:
        profile = sampled_profile(workload, window=window, period=period, trace=trace)
        oracle = SamplingProfilerSink(window=window, period=period)
        trace.replay(oracle)
        assert list(profile.trg.items()) == list(oracle.profile.trg.items())
        assert list(profile.entities.items()) == list(oracle.profile.entities.items())
        assert profile.total_accesses == oracle.profile.total_accesses
        ratio = sampling_ratio(profile.total_accesses, window, period)
        assert f"{ratio * 100:.1f}" == f"{oracle.sampling_ratio * 100:.1f}"
        assert ratio == oracle.sampling_ratio
