"""Longest-estimated-first dispatch: cost priors and frontier order.

One heavy job dispatched last serializes a whole run behind it.  These
tests pin the ordering contract at both layers: the cost priors rank
programs/stages sensibly, and the job-graph executor hands its ready
frontier to the dispatcher longest-estimated-first.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import clear_cache
from repro.runtime import parallel
from repro.runtime.faults import FanoutReport, RetryPolicy
from repro.runtime.parallel import ExperimentSpec
from repro.sched import costs
from repro.sched.executor import run_experiments_dag


@pytest.fixture(autouse=True)
def _fresh():
    clear_cache()
    yield
    clear_cache()


class TestCostPriors:
    def test_program_weights_rank_trace_length(self):
        assert costs.program_weight("compress") > costs.program_weight(
            "espresso"
        ) > costs.program_weight("deltablue")

    def test_unknown_program_gets_neutral_weight(self):
        assert costs.program_weight("mystery") == pytest.approx(1.0)

    def test_job_cost_scales_stage_by_program(self):
        assert costs.job_cost("profile", "compress") > costs.job_cost(
            "profile", "deltablue"
        )
        assert costs.job_cost("profile", "espresso") > costs.job_cost(
            "place", "espresso"
        )

    def test_priors_ignore_the_working_directory(self, tmp_path, monkeypatch):
        import json

        kinds = tuple(costs.STAGE_BASE)
        programs = (*costs.PROGRAM_WEIGHT, "mystery", None)
        static = {
            (kind, name): costs.STAGE_BASE[kind] * costs.PROGRAM_WEIGHT.get(name, 1.0)
            for kind in kinds
            for name in programs
        }
        # Skewed reports under the names a history-reading prior would
        # open: deltablue far heavier than compress, every stage a minute.
        (tmp_path / "BENCH_placement.json").write_text(
            json.dumps(
                {
                    "arms": {
                        "array": {
                            "per_program_s": {"deltablue": 9.0, "compress": 0.3}
                        }
                    }
                }
            )
        )
        (tmp_path / "BENCH_dag.json").write_text(
            json.dumps({"job_seconds_by_kind": dict.fromkeys(kinds, 60.0)})
        )
        monkeypatch.chdir(tmp_path)
        assert {
            (kind, name): costs.job_cost(kind, name)
            for kind in kinds
            for name in programs
        } == static


class TestFanoutOrder:
    def _capture_map(self, monkeypatch):
        captured = {}

        def fake_map(items, labels, worker, inline, jobs=1, policy=None, **kw):
            captured["labels"] = list(labels)
            return [None] * len(items), FanoutReport(
                total=len(items), completed=len(items)
            )

        monkeypatch.setattr(parallel, "_resilient_map", fake_map)
        return captured

    def test_graph_frontier_dispatches_longest_first(self, monkeypatch):
        captured = self._capture_map(monkeypatch)
        specs = [
            ExperimentSpec(workload="deltablue", same_input=True),
            ExperimentSpec(workload="compress", same_input=True),
            ExperimentSpec(workload="espresso", same_input=True),
        ]
        # The stand-in map runs nothing, so every spec comes back a hole.
        run_experiments_dag(specs, jobs=1, policy=RetryPolicy(best_effort=True))
        assert [label.split("/")[0] for label in captured["labels"]] == [
            "trace:compress",
            "trace:espresso",
            "trace:deltablue",
        ]
