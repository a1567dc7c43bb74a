#!/usr/bin/env python3
"""Debug a layout: predicted vs measured conflicts, before and after.

The TRG predicts which object pairs will fight over cache lines; an
eviction-tracking simulation shows which pairs actually did.  This
example records m88ksim's test input once, replays it under both
placements with eviction tracking and prints the conflict report — the
natural placement's top measured pair should match the TRG's top
predicted pair, and the CCDP run should show that pair gone.
"""

from __future__ import annotations

from repro import CCDPResolver, NaturalResolver, make_workload
from repro.analysis.conflicts import (
    conflict_report,
    object_labels,
    replay_evictions,
    total_cross_object_evictions,
)
from repro.runtime.driver import build_placement
from repro.trace.buffer import record_trace


def main() -> None:
    workload = make_workload("m88ksim")
    profile, placement = build_placement(workload)
    trace = record_trace(workload, workload.test_input)

    before = replay_evictions(trace, NaturalResolver())
    after = replay_evictions(trace, CCDPResolver(placement))

    print(conflict_report(profile, before, after, object_labels(trace)))
    print()
    print(f"cross-object evictions, natural: "
          f"{total_cross_object_evictions(before)}")
    print(f"cross-object evictions, CCDP:    "
          f"{total_cross_object_evictions(after)}")


if __name__ == "__main__":
    main()
