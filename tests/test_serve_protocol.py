"""Hostile-input and failure-surface coverage for the serve daemon.

Every test here attacks the daemon's front door — malformed framing,
oversized bodies, dead peers, poisoned uploads, queue pressure, faults
injected into served jobs — and then proves the daemon is still healthy.
The invariant under test is always the same: a bad client or a bad job
gets an error *response*; the process never gets an error.
"""

from __future__ import annotations

import json
import socket
import struct
import time

import pytest

from repro.serve import Daemon, ServeClient, ServeConfig
from repro.serve import protocol
from repro.trace.buffer import record_trace


@pytest.fixture
def daemon(tmp_path):
    """A small daemon: tight queue, tiny batches, 256 KiB body ceiling."""
    instance = Daemon(
        ServeConfig(
            cache_dir=str(tmp_path / "serve-store"),
            announce=False,
            queue_depth=2,
            batch_max=1,
            max_body_bytes=256 * 1024,
            drain_timeout=10.0,
        )
    ).start()
    yield instance
    if instance.state != "stopped":
        instance.stop()


def _raw(port: int, data: bytes) -> bytes:
    """Send raw bytes, return whatever the daemon answers before closing."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks += chunk
    return chunks


def _wait_counter(daemon: Daemon, name: str, timeout: float = 2.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = daemon.telemetry.counters.get(name, 0)
        if value:
            return value
        time.sleep(0.02)
    return daemon.telemetry.counters.get(name, 0)


def test_malformed_request_line_gets_400(daemon):
    response = _raw(daemon.port, b"NONSENSE\r\n\r\n")
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"malformed request line" in response
    assert ServeClient(port=daemon.port).health()["ok"]


def test_malformed_header_gets_400(daemon):
    response = _raw(
        daemon.port, b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n"
    )
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"malformed header" in response


def test_bad_json_body_gets_400_and_daemon_survives(daemon):
    body = b"{definitely not json"
    head = (
        f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    response = _raw(daemon.port, head + body)
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"not valid JSON" in response
    assert ServeClient(port=daemon.port).ready()


def test_validation_rejections_are_400(daemon):
    client = ServeClient(port=daemon.port)
    cases = [
        ({"kind": "transmute"}, "unknown job kind"),
        ({"kind": "placement"}, "need a workload"),
        ({"kind": "placement", "workload": "ghost"}, "need an input name"),
        (
            {"kind": "placement", "workload": "ghost", "input": "main"},
            "unknown workload",
        ),
        (
            {"kind": "placement", "workload": "compress", "cache": [0, 32, 1]},
            "cache geometry",
        ),
        ({"kind": "experiment", "workload": "ghost"}, "registry workload"),
        ({"kind": "sleep", "seconds": 999}, "sleep seconds"),
    ]
    for payload, needle in cases:
        status, answer = client.try_submit(payload)
        assert status == 400, payload
        assert needle in answer["error"], payload


def test_unknown_route_404_and_wrong_method_405(daemon):
    client = ServeClient(port=daemon.port)
    status, _ = client.request("GET", "/v1/nothing/here")
    assert status == 404
    status, _ = client.request("POST", "/healthz")
    assert status == 405
    status, _ = client.request("GET", "/v1/jobs/ffffffffffff")
    assert status == 404  # well-formed id, no such job


def test_oversized_body_gets_413_without_reading_it(daemon):
    # Declare a body far past the 64 KiB ceiling but never send it: the
    # daemon must answer 413 off the headers alone and close.
    head = (
        "POST /v1/traces?workload=x&input=y HTTP/1.1\r\n"
        "Content-Length: 10485760\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", daemon.port), timeout=5.0) as sock:
        sock.sendall(head)
        response = sock.recv(65536)
    assert response.startswith(b"HTTP/1.1 413 ")
    assert b"exceeds" in response
    assert ServeClient(port=daemon.port).ready()


def test_default_daemon_accepts_the_largest_paper_trace(tmp_path):
    """Every paper trace fits the default body ceiling, the largest too.

    compress ``bigtest-40k`` packs to about 5.8 MiB; a stats job on the
    upload can only finish from the uploaded columns, because ``bigprog``
    is not a registry workload.
    """
    from repro.workloads import make_workload

    trace = record_trace(make_workload("compress"), "bigtest-40k")
    daemon = Daemon(
        ServeConfig(cache_dir=str(tmp_path / "serve-store"), announce=False)
    ).start()
    try:
        client = ServeClient(port=daemon.port, timeout=120.0)
        uploaded = client.upload_trace("bigprog", "bigtest-40k", trace)
        assert uploaded["events"] == trace.events
        assert uploaded["bytes"] > 4 << 20
        record = client.run(
            "stats", workload="bigprog", input="bigtest-40k", timeout=120.0
        )
        assert record["state"] == "done", record
        stats = record["result"]["stats"]
        assert stats["loads"] + stats["stores"] == trace.events
    finally:
        daemon.stop()


def test_mid_upload_disconnect_is_survived(daemon):
    head = (
        "POST /v1/traces?workload=x&input=y HTTP/1.1\r\n"
        "Content-Length: 5000\r\n\r\n"
    ).encode()
    sock = socket.create_connection(("127.0.0.1", daemon.port), timeout=5.0)
    sock.sendall(head + b"\x00" * 100)  # 100 of the promised 5000 bytes
    sock.close()
    assert _wait_counter(daemon, "serve.http.disconnects") >= 1
    assert ServeClient(port=daemon.port).ready()


def test_upload_with_bad_magic_gets_400(daemon):
    client = ServeClient(port=daemon.port)
    status, payload = client.request(
        "POST",
        "/v1/traces?workload=x&input=y",
        body=b"NOPE" + b"\x00" * 64,
        content_type="application/octet-stream",
    )
    assert status == 400
    assert "magic" in payload["error"]


def test_upload_fingerprint_mismatch_gets_400(daemon, toy_workload):
    trace = record_trace(toy_workload, "train")
    try:
        body = protocol.pack_trace_upload(trace)
    finally:
        trace.close()
    # Re-frame the envelope with a forged fingerprint declaration.
    header = struct.Struct("<4sI")
    _magic, meta_len = header.unpack_from(body)
    meta = json.loads(body[header.size : header.size + meta_len])
    meta["fingerprint"] = "0" * len(meta["fingerprint"])
    forged_meta = json.dumps(meta, sort_keys=True).encode()
    forged = (
        header.pack(protocol.UPLOAD_MAGIC, len(forged_meta))
        + forged_meta
        + body[header.size + meta_len :]
    )
    client = ServeClient(port=daemon.port)
    status, payload = client.request(
        "POST",
        "/v1/traces?workload=toyprog&input=train",
        body=forged,
        content_type="application/octet-stream",
    )
    assert status == 400
    assert "fingerprint mismatch" in payload["error"]
    # The poisoned upload left nothing behind and the daemon still works.
    uploads = daemon.store.root / "uploads"
    assert not uploads.exists() or list(uploads.iterdir()) == []
    assert ServeClient(port=daemon.port).ready()


def test_upload_with_edited_ops_document_gets_400(daemon, toy_workload):
    trace = record_trace(toy_workload, "train")
    try:
        body = protocol.pack_trace_upload(trace)
    finally:
        trace.close()
    # Edit the ops document after packing; the declared fingerprint stays.
    header = struct.Struct("<4sI")
    _magic, meta_len = header.unpack_from(body)
    meta_end = header.size + meta_len
    meta = json.loads(body[header.size : meta_end])
    ops_end = meta_end + meta["ops_bytes"]
    document = json.loads(body[meta_end:ops_end])
    document["compute_instructions"] += 1
    edited = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    meta["ops_bytes"] = len(edited)
    edited_meta = json.dumps(meta, sort_keys=True).encode()
    forged = (
        header.pack(protocol.UPLOAD_MAGIC, len(edited_meta))
        + edited_meta
        + edited
        + body[ops_end:]
    )
    client = ServeClient(port=daemon.port)
    status, payload = client.request(
        "POST",
        "/v1/traces?workload=toyprog&input=train",
        body=forged,
        content_type="application/octet-stream",
    )
    assert status == 400
    assert "fingerprint mismatch" in payload["error"]
    uploads = daemon.store.root / "uploads"
    assert not uploads.exists() or list(uploads.iterdir()) == []
    assert ServeClient(port=daemon.port).ready()


def test_use_after_free_upload_fails_the_adaptive_job_not_the_daemon(daemon):
    """A trace that touches a freed object fails its job with TraceError.

    ``repro serve`` checks an upload's fingerprint, not its object
    lifetimes, so the corrupt stream reaches the adaptive engine.
    """
    from tests.test_trace_errors import use_after_free_trace

    client = ServeClient(port=daemon.port)
    client.upload_trace("uafprog", "train", use_after_free_trace())
    record = client.run(
        "placement",
        workload="uafprog",
        input="train",
        cache=[1024, 32, 1],
        mode="adaptive",
        window_events=2,
        timeout=60.0,
    )
    assert record["state"] == "failed"
    assert "TraceError" in record["error"]
    assert "access to unknown object id 9" in record["error"]
    assert ServeClient(port=daemon.port).ready()


def test_undeclared_id_upload_fails_the_profile_job_not_the_daemon(daemon):
    """A trace that touches an id no op declared fails its profile job.

    The batched profiler used to count the access on the stack entity
    and return the profile.
    """
    from tests.test_trace_errors import undeclared_id_trace

    client = ServeClient(port=daemon.port)
    client.upload_trace("undeclprog", "train", undeclared_id_trace())
    record = client.run(
        "profile",
        workload="undeclprog",
        input="train",
        cache=[1024, 32, 1],
        timeout=60.0,
    )
    assert record["state"] == "failed"
    assert "TraceError" in record["error"]
    assert "access to unknown object id 5" in record["error"]
    assert ServeClient(port=daemon.port).ready()


def test_negative_offset_upload_fails_the_profile_job_not_the_daemon(daemon):
    """A trace with a negative access offset fails its profile job.

    Uploads are not checked for offsets, so the profiler is what must
    refuse the access rather than count it on another entity's chunk.
    """
    from tests.test_trace_errors import negative_offset_trace

    client = ServeClient(port=daemon.port)
    client.upload_trace("negprog", "train", negative_offset_trace())
    record = client.run(
        "profile",
        workload="negprog",
        input="train",
        cache=[1024, 32, 1],
        timeout=60.0,
    )
    assert record["state"] == "failed"
    assert "TraceError" in record["error"]
    assert "negative offset -256 into object id 2" in record["error"]
    assert ServeClient(port=daemon.port).ready()


def test_queue_full_answers_429(daemon):
    client = ServeClient(port=daemon.port)
    # One sleep occupies the dispatcher, two more fill the depth-2 queue;
    # a further submit must bounce with 429 rather than buffer unbounded.
    statuses = []
    for _ in range(6):
        status, payload = client.try_submit({"kind": "sleep", "seconds": 0.5})
        statuses.append(status)
        if status == 429:
            assert "queue is full" in payload["error"]
            assert payload["queue_depth"] == 2
            break
    assert 429 in statuses, f"never saw backpressure: {statuses}"
    assert daemon.telemetry.counters.get("serve.http.backpressure", 0) >= 1
    # Accepted jobs still finish once the queue drains.
    accepted = [s for s in statuses if s == 202]
    assert accepted, "expected some submissions to be accepted"


def test_injected_fault_fails_the_job_not_the_daemon(daemon, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "crash@0#*")
    client = ServeClient(port=daemon.port)
    record = client.run(
        "experiment", workload="mgrid", same_input=True, timeout=120.0
    )
    assert record["state"] == "failed"
    assert record["error"]
    assert ServeClient(port=daemon.port).ready()
    metrics = client.metrics()
    assert metrics["jobs"]["failed"] >= 1

    # With the fault plan cleared the daemon serves the next job fine.
    monkeypatch.delenv("REPRO_FAULTS")
    follow_up = client.run("sleep", seconds=0.01)
    assert follow_up["state"] == "done"


def test_draining_daemon_rejects_new_work_but_answers_polls(daemon):
    client = ServeClient(port=daemon.port)
    job_id = client.submit("sleep", seconds=1.5)
    client.shutdown()
    status, payload = client.try_submit({"kind": "sleep", "seconds": 0.01})
    assert status == 503
    assert "draining" in payload["error"]
    # A status poll still works while the drain runs (the listener stays
    # open for exactly this), and the already-accepted job completes
    # before the daemon exits instead of being dropped.
    poll = client.status(job_id)
    assert poll["state"] in ("queued", "running", "done")
    daemon.stop()
    assert daemon.state == "stopped"
    record = daemon.table.get(job_id)
    assert record is not None and record.state == "done"
