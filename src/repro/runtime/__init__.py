"""Runtime: placement resolvers and the experiment driver."""

from .driver import (
    ExperimentResult,
    MeasureResult,
    build_placement,
    collect_stats,
    measure,
    measure_trace,
    profile_workload,
    run_experiment,
)
from .resolvers import (
    AddressResolver,
    CCDPResolver,
    NaturalResolver,
    RandomResolver,
)

__all__ = [
    "AddressResolver",
    "build_placement",
    "CCDPResolver",
    "collect_stats",
    "ExperimentResult",
    "measure",
    "measure_trace",
    "MeasureResult",
    "NaturalResolver",
    "profile_workload",
    "RandomResolver",
    "run_experiment",
]
