#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Prints Tables 1-5, the Figure 3 scatter summary, the Section 5.1
random-placement comparison, and the Section 5.2 geometry sweep, in the
paper's order.  This is the script EXPERIMENTS.md is generated from.

Run time: a few minutes (every program is profiled, placed, and
simulated under multiple placements and inputs).
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import (
    run_figure3,
    run_associative_placement,
    run_geometry_sweep,
    run_random_vs_natural,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments import (
    run_hierarchy_study,
    run_input_sensitivity,
    run_overhead_report,
    run_sampling_study,
)
from repro.experiments.ablations import (
    naming_depth_study,
    sweep_heap_discipline,
    sweep_chunk_size,
    sweep_heap_placement,
    sweep_popularity_cutoff,
    sweep_queue_threshold,
)


def section(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the job graph's stage jobs (default 1; "
        "try the machine's core count)",
    )
    args = parser.parse_args()
    from repro.experiments.common import set_parallel_jobs

    set_parallel_jobs(args.jobs)

    start = time.time()

    section("Table 1 (paper p.5): workload statistics")
    print(run_table1().render())

    section("Table 2 (paper p.5): same-input miss rates")
    table2 = run_table2()
    print(table2.render())
    print(f"\naverage reduction: {table2.average_reduction:.2f}% "
          "(paper: 30.35%)")

    section("Table 3 (paper p.7): references by object size")
    print(run_table3().render())

    section("Table 4 (paper p.7): cross-input miss rates")
    table4 = run_table4()
    print(table4.render())
    print(f"\naverage reduction: {table4.average_reduction:.2f}% "
          "(paper: 23.75%)")

    section("Table 5 (paper p.7): paging and working sets")
    print(run_table5().render())

    section("Figure 3 (paper p.8): heap objects, miss rate vs references")
    figure3 = run_figure3()
    print(figure3.render())
    for program in ("deltablue", "groff"):
        print()
        print(figure3.render_plot(program))

    section("Section 5.1: random vs natural placement")
    random_result = run_random_vs_natural()
    print(random_result.render())
    print(f"\nmean increase under random placement: "
          f"{random_result.mean_increase:.1f}%")

    section("Section 5.2: placement vs cache geometry")
    print(run_geometry_sweep().render())

    section("Section 5.2 extension: associative (set-granular) placement")
    print(run_associative_placement().render())

    section("Ablations (design choices from Sections 3.2/3.4 and Phase 0)")
    for sweep in (
        sweep_queue_threshold,
        sweep_chunk_size,
        naming_depth_study,
        sweep_popularity_cutoff,
        sweep_heap_placement,
        sweep_heap_discipline,
    ):
        print(sweep().render())
        print()

    section("Input sensitivity: one placement, all inputs")
    print(run_input_sensitivity().render())

    section("Extensions: overhead, hierarchy, sampled profiling")
    print(run_overhead_report().render())
    print()
    print(run_hierarchy_study().render())
    print()
    print(run_sampling_study().render())

    print(f"\n[total {time.time() - start:.0f}s]")


if __name__ == "__main__":
    main()
