"""Tests of the benchmark harness itself: ``python -m pytest bench -q``.

They cover the span arithmetic, the wrappers' install/restore, the
``compare`` verdicts, the seed-driven inputs against the pinned
fingerprints, and the correctness gate's exit code.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import pytest

from bench import EXPECTED_PATH, ROOT, compare, reference, tracer
from bench.worker import use_checkout_src

use_checkout_src()

import repro.experiments.common as experiments_common  # noqa: E402
import repro.runtime.driver as driver  # noqa: E402
import repro.trace.buffer as trace_buffer  # noqa: E402
from repro.core.algorithm import CCDPPlacer  # noqa: E402
from repro.store.keys import trace_fingerprint  # noqa: E402
from repro.workloads import drift_workload, make_workload  # noqa: E402

from bench import workloads  # noqa: E402

EXPECTED = json.loads(EXPECTED_PATH.read_text())


def _bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def fake_module():
    """A module whose ``outer`` calls ``inner`` and a ``Box.work`` method."""
    module = types.ModuleType("bench_fake_layers")
    exec(
        "def inner():\n"
        "    return 1\n"
        "def outer():\n"
        "    return inner() + inner()\n"
        "class Box:\n"
        "    def work(self):\n"
        "        return outer()\n",
        module.__dict__,
    )
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def _ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_time_and_residual_on_nested_calls(fake_module):
    entries = [
        tracer.EntryPoint("x", "work", fake_module.__name__, "Box.work"),
        tracer.EntryPoint("x", "outer", fake_module.__name__, "outer"),
        tracer.EntryPoint("y", "inner", fake_module.__name__, "inner"),
    ]
    recorder = tracer.Tracer(entries, clock=_ticking_clock())
    recorder.install()
    try:
        assert fake_module.Box().work() == 2
    finally:
        recorder.uninstall()
    spans = recorder.start_pass(1)
    # One clock tick per span start and end.
    assert [(s.name, s.start, s.end, s.parent) for s in spans] == [
        ("work", 0.0, 7.0, -1),
        ("outer", 1.0, 6.0, 0),
        ("inner", 2.0, 3.0, 1),
        ("inner", 4.0, 5.0, 1),
    ]
    assert tracer.self_times(spans) == [2.0, 3.0, 1.0, 1.0]
    metrics = tracer.layer_metrics(spans, wall=10.0, extras={})
    assert metrics["bench.residual_s"] == 3.0
    assert metrics["bench.residual_share"] == 0.3
    assert fake_module.Box.__dict__["work"].__name__ == "work"
    assert not hasattr(fake_module.outer, "__wrapped__")


def test_synthetic_spans_give_exact_self_times():
    spans = [
        tracer.Span("record_trace", 0.0, 10.0, -1, 0, events=500),
        tracer.Span("get", 1.0, 3.0, 0, 0, flag=True),
        tracer.Span("put", 4.0, 5.0, 0, 0),
        tracer.Span("get", 12.0, 13.0, -1, 0, flag=False),
    ]
    assert tracer.self_times(spans) == [7.0, 2.0, 1.0, 1.0]
    metrics = tracer.layer_metrics(spans, wall=16.0, extras={"bytes_written": 9})
    assert metrics["trace.self_s"] == 7.0
    assert metrics["trace.events_per_s"] == 500 / 7.0
    assert metrics["store.get_calls"] == 2
    assert metrics["store.hit_ratio"] == 0.5
    assert metrics["store.get_self_s"] == 3.0
    assert metrics["store.bytes_written"] == 9
    assert metrics["bench.residual_s"] == 16.0 - 11.0
    assert metrics["bench.residual_share"] == 5.0 / 16.0


def test_ratios_divide_by_the_reference_around_each_interval():
    # Blocks before, between and after two intervals; medians 2, 4 and 6.
    blocks = [[2.0, 1.0, 9.0], [4.0, 4.0, 0.5], [6.0, 7.0, 5.0]]
    assert reference.ratios([30.0, 50.0], blocks) == [10.0, 10.0]
    # The same work on a host twice as slow gives the same ratios.
    slow = [[2 * t for t in block] for block in blocks]
    assert reference.ratios([60.0, 100.0], slow) == [10.0, 10.0]


def test_stopwatch_pauses_at_entry_points_and_restores_them(monkeypatch):
    monkeypatch.setattr(reference, "PAUSE_EVERY_S", 0.0)
    record_trace = trace_buffer.record_trace
    watch = reference.Stopwatch(pause=True)
    watch.start()
    try:
        assert experiments_common.record_trace is not record_trace
        experiments_common.record_trace(
            drift_workload("stationary", iterations=200), "train"
        )
    finally:
        watch.stop()
    assert experiments_common.record_trace is record_trace
    # Paused on entry and on return, then stopped: three intervals.
    assert len(watch.walls) == 3
    assert len(watch.blocks) == 4
    assert all(len(b) == reference.REPEATS for b in watch.blocks)
    assert watch.wall == sum(watch.walls)
    assert watch.wall_ref == sum(reference.ratios(watch.walls, watch.blocks))


def test_wrappers_patch_every_binding_and_restore_originals():
    record_trace = trace_buffer.record_trace
    collect_stats = driver.collect_stats
    place = CCDPPlacer.__dict__["place"]
    assert experiments_common.record_trace is record_trace
    recorder = tracer.Tracer()
    recorder.install()
    try:
        for module in (trace_buffer, driver, experiments_common):
            assert module.record_trace is not record_trace
            assert module.record_trace.__wrapped__ is record_trace
        assert experiments_common.collect_stats.__wrapped__ is collect_stats
        assert CCDPPlacer.__dict__["place"] is not place
        trace = experiments_common.record_trace(
            drift_workload("stationary", iterations=200), "train"
        )
    finally:
        recorder.uninstall()
    for module in (trace_buffer, driver, experiments_common):
        assert module.record_trace is record_trace
    assert experiments_common.collect_stats is collect_stats
    assert CCDPPlacer.__dict__["place"] is place
    spans = recorder.start_pass(1)
    assert [(s.name, s.events) for s in spans] == [("record_trace", trace.events)]


def _summary(*samples):
    return compare.summarize(list(samples))


def test_compare_verdicts():
    base = _summary(10.0, 10.1, 10.2, 9.9)
    assert compare.verdict(base, _summary(10.5, 10.6, 10.4, 10.5), 0.1, "lower") == "within"
    assert compare.verdict(base, _summary(11.5, 11.6, 11.4, 11.5), 0.1, "lower") == "regressed"
    # Higher is better: a drop is the regression.
    assert compare.verdict(base, _summary(8.5, 8.6, 8.4, 8.5), 0.1, "higher") == "regressed"
    assert compare.verdict(base, _summary(11.5, 11.6, 11.4, 11.5), 0.1, "higher") == "within"
    # Spread wider than the bound: unresolved, unless every sample is better.
    noisy = _summary(8.0, 12.0, 9.0, 11.0)
    assert compare.verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert compare.verdict(noisy, _summary(7.0, 7.2, 7.1), 0.1, "lower") == "within"
    # An absolute floor absorbs small set-up changes.
    small = _summary(0.20, 0.20, 0.20)
    assert compare.verdict(small, _summary(0.29, 0.29), 0.1, "lower", 0.1) == "within"
    assert compare.verdict(small, _summary(0.31, 0.31), 0.1, "lower", 0.1) == "regressed"


SPEC = {"end_to_end": [
    {"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.1},
    {"name": "placed_miss_rate_pct", "unit": "%", "better": "lower", "bound": 0.05},
]}


def _report(wall, failed=0, placed=10.0, seed=0):
    return {
        "seed": seed,
        "workloads": {
            "w": {
                "attempted": 10,
                "failed": failed,
                "metrics": {
                    "wall_ref": compare.summarize(wall),
                    "placed_miss_rate_pct": compare.summarize([placed]),
                },
            }
        },
    }


def _verdicts(rows):
    return [(r["workload"], r["metric"], r["verdict"]) for r in rows]


def test_compare_reports_and_exit_code(tmp_path, capsys):
    rows = compare.compare_reports(_report([1.0, 1.0]), _report([1.05, 1.05]), SPEC)
    assert _verdicts(rows) == [
        ("w", "wall_ref", "within"),
        ("w", "placed_miss_rate_pct", "within"),
        ("w", "ops_failed_frac", "within"),
    ]
    rows = compare.compare_reports(_report([1.0]), _report([1.0], failed=1), SPEC)
    assert rows[-1]["verdict"] == "regressed"
    before, after = tmp_path / "a.json", tmp_path / "b.json"
    before.write_text(json.dumps(_report([1.0, 1.0])))
    after.write_text(json.dumps(_report([2.0, 2.0])))
    assert compare.main([str(before), str(after)]) == 1
    assert "regressed=1" in capsys.readouterr().out
    assert compare.main([str(before), str(before)]) == 0


def test_compare_any_miss_rate_increase_regresses_at_the_same_seed():
    base = _report([1.0], placed=10.0)
    worse = _report([1.0], placed=10.001)
    rows = compare.compare_reports(base, worse, SPEC)
    assert ("w", "placed_miss_rate_pct", "regressed") in _verdicts(rows)
    # Between seeds the inputs differ, so the bound applies.
    rows = compare.compare_reports(base, _report([1.0], placed=10.4, seed=1), SPEC)
    assert ("w", "placed_miss_rate_pct", "within") in _verdicts(rows)


def test_compare_regresses_a_workload_or_metric_missing_after(tmp_path, capsys):
    base = _report([1.0, 1.0])
    base["workloads"]["v"] = base["workloads"]["w"]
    dropped = _report([1.0, 1.0])
    del dropped["workloads"]["w"]["metrics"]["wall_ref"]
    rows = compare.compare_reports(base, dropped, SPEC)
    assert _verdicts(rows) == [
        ("w", "wall_ref", "regressed"),
        ("w", "placed_miss_rate_pct", "within"),
        ("w", "ops_failed_frac", "within"),
        ("v", "wall_ref", "regressed"),
        ("v", "placed_miss_rate_pct", "regressed"),
        ("v", "ops_failed_frac", "regressed"),
    ]
    assert rows[0]["after"] is None and rows[-1]["after"] == 1.0
    before, after = tmp_path / "a.json", tmp_path / "b.json"
    before.write_text(json.dumps(base))
    after.write_text(json.dumps(dropped))
    assert compare.main([str(before), str(after)]) == 1
    assert "missing" in capsys.readouterr().out


def _fingerprint(workload, input_name):
    return trace_fingerprint(trace_buffer.record_trace(workload, input_name))


def test_seed_zero_reproduces_pinned_fingerprints():
    pinned = EXPECTED["paper"]["traces"]
    for name in ("mgrid", "m88ksim"):
        workload = make_workload(name)
        for input_name in (workload.train_input, workload.test_input):
            assert _fingerprint(workload, input_name) == pinned[f"{name}/{input_name}"]
    for name, fingerprint in EXPECTED["adaptive-drift"]["traces"].items():
        assert _fingerprint(workloads.drift_input(name, 0), "test") == fingerprint


def test_seed_one_makes_other_inputs_deterministically():
    (clone,) = workloads.seeded_names(["mgrid"], 1)
    assert clone == "mgrid-s1"
    workload = make_workload(clone)
    first = _fingerprint(workload, workload.train_input)
    assert first != EXPECTED["paper"]["traces"][f"mgrid/{workload.train_input}"]
    assert _fingerprint(make_workload(clone), workload.train_input) == first


def _copy_benchmark(root):
    """``BENCHMARK.json`` and ``bench/`` copied under ``root``."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(
        ROOT / "bench", root / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )


def test_tampered_expected_digest_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    tampered = json.loads(json.dumps(EXPECTED))
    tampered["adaptive-drift"]["traces"]["stationary"] = "0" * 64
    (tmp_path / "bench" / EXPECTED_PATH.name).write_text(json.dumps(tampered))
    done = _bench("--workload", "adaptive-drift", "--seconds", "0", cwd=tmp_path)
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    # Six ops per pass, of which stationary at both window sizes fail.
    assert line["attempted"] % 6 == 0
    assert line["failed"] == line["attempted"] // 3 > 0


def test_exits_nonzero_without_the_package(tmp_path):
    _copy_benchmark(tmp_path)
    done = _bench("--workload", "adaptive-drift", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
