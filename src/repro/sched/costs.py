"""Cost priors for longest-estimated-first job dispatch.

One heavy job dispatched last serializes the tail of a run behind it
(``compress`` traces and profiles about three times as long as
``espresso``).  Dispatching the ready frontier longest-estimated-first
bounds that tail: the expensive work starts immediately and the cheap
jobs fill the remaining slots.

The priors are static: a per-stage base cost times a per-program
weight, both measured on the reference machine.  They never depend on
files in the working directory, so every run of the same graph
dispatches in the same order.  Estimates only order dispatch and weight
the critical path; a wrong prior costs a little wall-clock, never
correctness.
"""

from __future__ import annotations

#: Baseline seconds per stage kind (reference machine, mid-size program).
STAGE_BASE = {
    "trace": 0.13,
    "profile": 0.25,
    "place": 0.01,
    "measure": 0.06,
    "aggregate": 0.01,
}

#: Relative weight of each benchmark program (trace length dominates).
PROGRAM_WEIGHT = {
    "compress": 3.0,
    "gcc": 1.4,
    "groff": 1.3,
    "go": 1.2,
    "m88ksim": 1.1,
    "fpppp": 1.1,
    "espresso": 1.0,
    "mgrid": 0.9,
    "deltablue": 0.6,
}


def program_weight(workload: str | None) -> float:
    """Relative expense of one program (1.0 for an unknown name)."""
    return PROGRAM_WEIGHT.get(workload, 1.0) if workload else 1.0


def job_cost(kind: str, workload: str | None = None) -> float:
    """Estimated seconds for one (stage kind, program) job."""
    return STAGE_BASE.get(kind, 0.05) * program_weight(workload)
