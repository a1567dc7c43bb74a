"""Concurrency and soak coverage for the serve daemon.

The headline scenario from the service issue: sixteen threaded clients
hammer one daemon with the same placement request and must get bit-for-
bit identical placement maps — identical to what the batch pipeline
computes for the same inputs — while the daemon's dedup counters prove
the shared stage ran exactly once.  Shutdown must leave nothing behind:
no live threads, no pins, no spooled uploads.

Determinism trick: every multi-client test first submits a short
``sleep`` job.  The dispatcher's blocking ``queue.get`` picks it up
immediately and holds the (single) dispatcher for its duration, so all
subsequent submissions pile into the bounded queue and drain as *one*
batch — making the coalescing counters exact instead of racy.
"""

from __future__ import annotations

import multiprocessing
import threading

from tests.conftest import ToyWorkload

from repro.cache.config import PAPER_CACHE, CacheConfig
from repro.profiling.serialize import placement_to_dict
from repro.runtime.driver import build_placement
from repro.serve import Daemon, ServeClient, ServeConfig
from repro.store import stages as store_stages
from repro.trace.buffer import record_trace
from repro.workloads import make_workload

#: The soak width the acceptance criteria name.
CLIENTS = 16

#: How long the dispatcher-holding sleep job pins the queue, seconds.
HOLD = 0.4


def _run_clients(port: int, payloads: list[dict], tenant: str | None = None):
    """Fan ``payloads`` out over one thread per payload; returns records."""
    results: list[dict | None] = [None] * len(payloads)
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(payloads))

    def worker(index: int, payload: dict) -> None:
        client = ServeClient(port=port, tenant=tenant, timeout=120.0)
        barrier.wait()
        try:
            kind = payload.pop("kind")
            results[index] = client.run(kind, timeout=240.0, **payload)
        except BaseException as exc:  # surfaced to the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i, dict(p)), daemon=True)
        for i, p in enumerate(payloads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    assert not errors, f"client threads failed: {errors!r}"
    assert all(r is not None for r in results)
    return results


def test_sixteen_client_soak_dedups_and_shuts_down_clean(tmp_path, toy_workload):
    """The acceptance scenario: 16 clients, 1 execution, 0 leaks."""
    daemon = Daemon(
        ServeConfig(
            cache_dir=str(tmp_path / "serve-store"),
            announce=False,
            queue_depth=64,
            batch_max=CLIENTS,
        )
    ).start()
    try:
        client = ServeClient(port=daemon.port)
        trace = record_trace(toy_workload, "train")
        try:
            uploaded = client.upload_trace("toyprog", "train", trace)
        finally:
            trace.close()
        assert uploaded["workload"] == "toyprog"

        # Hold the dispatcher so all 16 placements coalesce in one batch.
        client.submit("sleep", seconds=HOLD)
        request = {
            "kind": "placement",
            "workload": "toyprog",
            "input": "train",
            "cache": [1024, 32, 1],
            "place_heap": True,
        }
        records = _run_clients(daemon.port, [request] * CLIENTS)

        assert all(r["state"] == "done" for r in records)
        digests = {r["result"]["digest"] for r in records}
        assert len(digests) == 1
        placements = [r["result"]["placement"] for r in records]
        assert all(p == placements[0] for p in placements)

        # The batch pipeline on the same workload must agree bit-for-bit.
        _profile, placement = build_placement(
            ToyWorkload(), "train", CacheConfig(1024, 32, 1), place_heap=True
        )
        assert placements[0] == placement_to_dict(placement)
        assert digests == {store_stages.placement_digest(placement)}

        counters = daemon.telemetry.counters
        # One cold execution total; every other client was served by
        # batch-level coalescing or a warm store hit.
        assert counters.get("serve.stages.executed", 0) == 1
        deduped = counters.get("serve.jobs.deduped", 0)
        warm = counters.get("serve.jobs.warm", 0)
        assert deduped + warm == CLIENTS - 1
        assert deduped >= 1, "no cross-client coalescing happened"
        assert counters.get("serve.jobs.failed", 0) == 0
        assert counters.get("serve.jobs.completed", 0) == CLIENTS + 1  # + sleep

        pins = list(daemon.store.pins_dir.glob("*.pin"))
        assert pins, "live daemon should hold trace pins"
    finally:
        daemon.stop()

    # -- clean-exit assertions ------------------------------------------------
    assert daemon.state == "stopped"
    assert daemon._thread is not None and not daemon._thread.is_alive()
    assert daemon._dispatcher is not None and not daemon._dispatcher.is_alive()
    assert multiprocessing.active_children() == []
    assert list(daemon.store.pins_dir.glob("*.pin")) == []
    uploads = daemon.store.root / "uploads"
    assert not uploads.exists() or list(uploads.iterdir()) == []


def test_registry_placement_matches_batch_cli_path(tmp_path):
    """A served registry placement equals the batch pipeline's output."""
    daemon = Daemon(
        ServeConfig(cache_dir=str(tmp_path / "serve-store"), announce=False)
    ).start()
    try:
        client = ServeClient(port=daemon.port)
        record = client.run(
            "placement",
            workload="compress",
            input="smalltest",
            cache=[8192, 32, 1],
        )
        assert record["state"] == "done", record["error"]
        _profile, placement = build_placement(
            make_workload("compress"), "smalltest", PAPER_CACHE
        )
        assert record["result"]["placement"] == placement_to_dict(placement)
        assert record["result"]["digest"] == store_stages.placement_digest(
            placement
        )
    finally:
        daemon.stop()


def test_experiment_jobs_share_stages_across_clients(tmp_path):
    """Distinct experiment requests dedup stages through the job graph."""
    daemon = Daemon(
        ServeConfig(
            cache_dir=str(tmp_path / "serve-store"),
            announce=False,
            queue_depth=16,
            batch_max=8,
        )
    ).start()
    try:
        client = ServeClient(port=daemon.port)
        client.submit("sleep", seconds=HOLD)
        same = {
            "kind": "experiment",
            "workload": "mgrid",
            "same_input": True,
            "cache": [8192, 32, 1],
        }
        cross = dict(same, same_input=False)
        a1, a2, b = _run_clients(daemon.port, [same, same, cross])

        assert a1["state"] == a2["state"] == b["state"] == "done"
        # Identical requests coalesced into one graph node...
        assert a1["result"] == a2["result"]
        assert daemon.telemetry.counters.get("serve.jobs.deduped", 0) >= 1
        # ...and the *distinct* request still shared the train-side
        # stages (trace, profile, placement) through the scheduler.
        assert a1["meta"]["stages_deduped"] >= 1
        assert a1["meta"]["stages_executed"] >= 1
        assert b["result"]["test_input"] != b["result"]["train_input"]
        assert a1["result"]["test_input"] == a1["result"]["train_input"]
        assert (
            a1["result"]["placement_digest"] == b["result"]["placement_digest"]
        )
    finally:
        daemon.stop()


def test_tenants_are_isolated_stores(tmp_path, toy_workload):
    """Same names, different tenants, different traces — no bleed-through."""
    daemon = Daemon(
        ServeConfig(cache_dir=str(tmp_path / "serve-store"), announce=False)
    ).start()
    try:
        for tenant, input_name in (("team-a", "train"), ("team-b", "test")):
            client = ServeClient(port=daemon.port, tenant=tenant)
            trace = record_trace(toy_workload, input_name)
            try:
                client.upload_trace("prog", "main", trace)
            finally:
                trace.close()

        request = {
            "kind": "placement",
            "workload": "prog",
            "input": "main",
            "cache": [1024, 32, 1],
        }
        result_a = _run_clients(daemon.port, [request], tenant="team-a")[0]
        result_b = _run_clients(daemon.port, [request], tenant="team-b")[0]
        assert result_a["state"] == result_b["state"] == "done"
        assert result_a["tenant"] == "team-a"
        assert result_b["tenant"] == "team-b"
        # Different uploaded traces under the same names: placements differ.
        assert result_a["result"]["digest"] != result_b["result"]["digest"]
        root = daemon.store.root
        assert (root / "tenants" / "team-a").is_dir()
        assert (root / "tenants" / "team-b").is_dir()

        # The default tenant never saw the upload, so the name is unknown.
        status, payload = ServeClient(port=daemon.port).try_submit(request)
        assert status == 400
        assert "unknown workload" in payload["error"]
    finally:
        daemon.stop()
