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
    import repro.trace.buffer as buffer
    from repro.cache.batch import BatchCacheSimulator

    with pytest.raises(ImportError):
        importlib.import_module("repro.runtime.replay")
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


#: Per-event consumers and simulators that live in ``tests/oracles.py`` only.
ORACLE_ONLY = (
    "Access",
    "Alloc",
    "CacheSimulator",
    "Free",
    "MultiSink",
    "ProfilerSink",
    "RecordingSink",
    "ReplaySink",
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


def test_batched_simulator_is_the_only_product_simulator():
    """No per-reference ``access``/``touch`` is left on a product class."""
    from repro.analysis.paging import PageTracker
    from repro.cache.batch import BatchCacheSimulator
    from repro.cache.hierarchy import TwoLevelCache

    assert not hasattr(TwoLevelCache, "access")
    assert not hasattr(PageTracker, "touch")
    hierarchy = TwoLevelCache()
    assert type(hierarchy.l1) is type(hierarchy.l2) is BatchCacheSimulator


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


def test_study_calls_record_each_input_once(monkeypatch):
    """The geometry, quality and sensitivity studies record each input once."""
    from collections import Counter

    from repro.experiments.common import clear_cache
    from repro.experiments.geometry import (
        run_associative_placement,
        run_geometry_sweep,
    )
    from repro.experiments.quality import run_quality_study
    from repro.experiments.sensitivity import run_input_sensitivity
    from repro.workloads import make_workload
    from repro.workloads.base import Workload

    runs = Counter()
    run = Workload.run

    def counting_run(self, sink, input_name):
        runs[(self.name, input_name)] += 1
        run(self, sink, input_name)

    monkeypatch.setattr(Workload, "run", counting_run)
    workload = make_workload("m88ksim")
    train_and_test = {
        ("m88ksim", workload.train_input): 1,
        ("m88ksim", workload.test_input): 1,
    }
    for call, expected in (
        (lambda: run_associative_placement(("m88ksim",)), train_and_test),
        (lambda: run_geometry_sweep(("m88ksim",)), train_and_test),
        (lambda: run_quality_study(("m88ksim",), trials=3), train_and_test),
        (
            lambda: run_input_sensitivity(("m88ksim",)),
            {("m88ksim", name): 1 for name in workload.inputs},
        ),
    ):
        clear_cache()
        runs.clear()
        call()
        assert dict(runs) == expected
    clear_cache()


def test_benchmark_entry_points_resolve():
    """Every target the benchmark's tracer wraps exists where it says.

    ``bench/reference.py`` patches each ``bench/tracer.py::ENTRY_POINTS``
    target in every timed pass, so a renamed or deleted one fails every
    benchmark workload; the consume volume reads ``vectorized``.
    """
    import inspect
    import sys
    from pathlib import Path

    from repro.cache.batch import BatchCacheSimulator
    from repro.cache.config import CacheConfig

    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench.tracer import ENTRY_POINTS

    for entry in ENTRY_POINTS:
        module = importlib.import_module(entry.module)
        owner_name, _, attr = entry.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            assert inspect.isclass(owner), entry.qualname
            assert attr in vars(owner), f"{entry.module}:{entry.qualname}"
        else:
            assert callable(getattr(module, attr, None)), f"{entry.module}:{attr}"
    consume = inspect.signature(BatchCacheSimulator.consume)
    assert list(consume.parameters)[1:] == [
        "addr",
        "size",
        "obj_id",
        "category",
        "is_store",
    ]
    for ways in (1, 2, 4):
        config = CacheConfig(size=8192, line_size=32, associativity=ways)
        assert BatchCacheSimulator(config).vectorized is True
