"""repro — Cache-Conscious Data Placement (Calder et al., ASPLOS 1998).

A complete, trace-driven reproduction of the paper's system:

* a workload substrate (:mod:`repro.vm`, :mod:`repro.workloads`) that
  turns synthetic versions of the paper's nine benchmarks into
  object-level reference traces;
* the profiling stage (:mod:`repro.profiling`) producing the Name profile
  and the Temporal Relationship Graph;
* the nine-phase placement algorithm (:mod:`repro.core`);
* XOR heap naming and the custom allocator (:mod:`repro.naming`,
  :mod:`repro.memory`);
* a classifying cache simulator (:mod:`repro.cache`) and the replay
  machinery (:mod:`repro.runtime`);
* experiment harnesses for every table and figure in the paper's
  evaluation (:mod:`repro.experiments`);
* run observability — timing spans, counters, structured run reports,
  and conservation invariants (:mod:`repro.obs`).

Quickstart::

    from repro import make_workload, run_experiment

    workload = make_workload("m88ksim")
    result = run_experiment(workload)
    print(result.original.cache.miss_rate, result.ccdp.cache.miss_rate)
"""

from .cache import CacheConfig, CacheStats, PAPER_CACHE
from .core import CCDPPlacer, HeapDecision, PlacementMap
from .obs import InvariantError, RunReport, Telemetry, run_report
from .profiling import Profile
from .runtime import (
    CCDPResolver,
    ExperimentResult,
    NaturalResolver,
    RandomResolver,
    build_placement,
    collect_stats,
    measure,
    profile_workload,
    run_experiment,
)
from .trace import Category, TraceError, TraceSink, WorkloadStats
from .vm import Program, Ref
from .workloads import Workload, WorkloadInput, make_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CacheStats",
    "Category",
    "CCDPPlacer",
    "CCDPResolver",
    "ExperimentResult",
    "HeapDecision",
    "InvariantError",
    "NaturalResolver",
    "PAPER_CACHE",
    "PlacementMap",
    "Profile",
    "Program",
    "RandomResolver",
    "Ref",
    "RunReport",
    "Telemetry",
    "TraceError",
    "TraceSink",
    "Workload",
    "WorkloadInput",
    "WorkloadStats",
    "build_placement",
    "collect_stats",
    "make_workload",
    "measure",
    "profile_workload",
    "run_experiment",
    "run_report",
    "workload_names",
]
