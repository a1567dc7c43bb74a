"""Public-API integrity: every ``__all__`` name must resolve.

Guards the re-export layers (package ``__init__`` modules) against
drift: a renamed class or a forgotten export fails here rather than in
a user's import.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.cache",
    "repro.core",
    "repro.experiments",
    "repro.memory",
    "repro.naming",
    "repro.profiling",
    "repro.reporting",
    "repro.runtime",
    "repro.trace",
    "repro.vm",
    "repro.workloads",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package} must declare __all__"
    for name in exported:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted_and_unique(package):
    module = importlib.import_module(package)
    exported = list(getattr(module, "__all__", []))
    assert len(exported) == len(set(exported)), f"duplicates in {package}"


def test_top_level_version():
    import repro

    assert repro.__version__


def test_baselines_reexports_resolvers():
    from repro.baselines import NaturalResolver, RandomResolver
    from repro.runtime.resolvers import (
        NaturalResolver as RuntimeNatural,
        RandomResolver as RuntimeRandom,
    )

    assert NaturalResolver is RuntimeNatural
    assert RandomResolver is RuntimeRandom


def test_workload_registry_is_importable_via_top_level():
    import repro

    workload = repro.make_workload("mgrid")
    assert workload.name == "mgrid"


#: Parameter names of the retired engine, placement-engine and parity switches.
ENGINE_SWITCHES = {"engine", "placement_engine", "parity"}


def test_no_product_path_selects_an_engine():
    """The vectorized kernels are the only product path; oracles live in tests."""
    import dataclasses
    import inspect

    from repro.cache.batch import BatchCacheSimulator
    from repro.core.algorithm import CCDPPlacer
    from repro.runtime.driver import (
        build_placement,
        measure,
        measure_trace,
        run_experiment,
    )
    from repro.sched.jobs import JobSpec
    from repro.store import stages

    loaders = [
        value
        for value in vars(stages).values()
        if inspect.isfunction(value) and value.__module__ == stages.__name__
    ]
    for target in (
        CCDPPlacer,
        BatchCacheSimulator,
        build_placement,
        run_experiment,
        measure,
        measure_trace,
        *loaders,
    ):
        params = set(inspect.signature(target).parameters)
        assert not params & ENGINE_SWITCHES, target.__qualname__
    assert not {field.name for field in dataclasses.fields(JobSpec)} & ENGINE_SWITCHES


def test_live_batched_replay_is_gone():
    import repro.runtime.replay as replay
    import repro.trace.buffer as buffer
    from repro.cache.batch import BatchCacheSimulator

    assert not hasattr(replay, "BatchReplaySink")
    assert not hasattr(buffer, "TraceBuffer")
    assert not hasattr(BatchCacheSimulator, "consume_buffer")


#: Parameter names of the deleted storage backends and spill-while-recording.
STORAGE_PARAMS = {"storage", "backend", "spill_chunk_events", "spill_dir"}


def test_trace_storage_tier_is_gone():
    """Traces record in-process or attach one mmap file; nothing else."""
    import inspect

    import repro.trace.plane as plane
    from repro.trace.buffer import TraceRecorder, record_trace

    for target in (record_trace, TraceRecorder):
        params = set(inspect.signature(target).parameters)
        assert not params & STORAGE_PARAMS, target.__qualname__
    for name in (
        "ShmStorage",
        "SpillWriter",
        "TraceHandle",
        "create_storage",
        "open_storage",
    ):
        assert not hasattr(plane, name), name
    with pytest.raises(ImportError):
        importlib.import_module("repro.runtime.scale")


#: Per-event consumers that live in ``tests/oracles.py`` only.
ORACLE_ONLY = (
    "Access",
    "Alloc",
    "Free",
    "MultiSink",
    "ProfilerSink",
    "RecordingSink",
    "SamplingProfilerSink",
    "StatsSink",
    "TRGBuilder",
)


def _repro_modules():
    import pkgutil

    import repro

    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        yield importlib.import_module(info.name)


def test_per_event_profilers_and_sinks_are_oracles_only():
    """No product module defines a per-event consumer or a profiler access hook."""
    import inspect

    for module in _repro_modules():
        defined = set(vars(module)) & set(ORACLE_ONLY)
        assert not defined, f"{module.__name__} defines {sorted(defined)}"
        if not module.__name__.startswith("repro.profiling"):
            continue
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                assert "on_access" not in vars(value), value.__qualname__


def test_trace_less_calls_record_the_workload_once(monkeypatch, toy_workload):
    """Without a trace, profiling and statistics record one run and use it."""
    from repro.profiling.sampling import sampled_profile
    from repro.runtime.driver import collect_stats, profile_workload
    from repro.trace.buffer import TraceRecorder
    from repro.workloads.base import Workload

    sinks = []
    run = Workload.run

    def recording_run(self, sink, input_name):
        sinks.append(type(sink))
        run(self, sink, input_name)

    monkeypatch.setattr(Workload, "run", recording_run)
    for call in (
        lambda: profile_workload(toy_workload, toy_workload.train_input),
        lambda: collect_stats(toy_workload, toy_workload.train_input),
        lambda: sampled_profile(toy_workload, window=100, period=300),
    ):
        sinks.clear()
        call()
        assert sinks == [TraceRecorder]
