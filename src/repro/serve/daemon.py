"""The ``repro serve`` daemon: placement-as-a-service over HTTP/1.1.

One process, two threads of control:

* The **asyncio front end** accepts connections, parses requests
  (:mod:`repro.serve.protocol`), answers the cheap endpoints inline
  (health, readiness, metrics, job status), validates submissions, and
  enqueues accepted jobs on a bounded queue.  A full queue answers 429
  immediately — backpressure is explicit, never an unbounded buffer.
* The **dispatcher thread** drains the queue in small batches, groups
  records by tenant, and runs each group through
  :func:`repro.serve.jobs.execute_batch` — coalescing identical
  requests, planning experiments through the job-graph scheduler, and
  serving warm artifacts from the tenant's store.  A single dispatcher
  owns all pipeline execution, so the module-global store/telemetry
  state the batch code relies on is never raced.

Tenancy is a header: ``X-Repro-Tenant`` selects a store namespace.  The
default tenant shares the daemon's root store (so a batch CLI run
against the same ``--cache-dir`` warms the service and vice versa);
named tenants get isolated roots under ``<root>/tenants/<name>``.

Traces the daemon touches are **pinned** in the store
(:meth:`~repro.store.store.ArtifactStore.pin_trace`), so a concurrent
``repro cache gc`` against the same root cannot collect fingerprints a
live daemon depends on.  Pins are released on shutdown.

Shutdown is graceful: a ``SIGTERM``/``SIGINT`` or
``POST /v1/admin/shutdown`` flips the daemon to *draining* — new
submissions are refused (503), status polls keep working, and the
dispatcher finishes everything already queued (bounded by
``drain_timeout``) before the listener closes and pins are released.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import queue
import re
import signal
import threading
import time
from dataclasses import dataclass

from ..obs import telemetry as obs
from ..store import traces as store_traces
from ..store.keys import decode_ops, trace_fingerprint
from ..store.store import ArtifactStore, resolve_cache_dir
from ..trace import plane
from . import jobs as serve_jobs
from . import protocol

#: Daemon lifecycle states (also the ``state`` field of ``/healthz``).
STARTING = "starting"
READY = "ready"
DRAINING = "draining"
STOPPED = "stopped"

#: The implicit tenant — shares the daemon's root store.
DEFAULT_TENANT = "default"

_TENANT_RE = re.compile(r"^[a-z0-9][a-z0-9_-]{0,31}$")
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_JOB_PATH_RE = re.compile(r"^/v1/jobs/([0-9a-f]{12})(/result)?$")


@dataclass
class ServeConfig:
    """Knobs for one daemon instance (mirrors the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    queue_depth: int = 32
    batch_max: int = 8
    drain_timeout: float = 30.0
    cache_dir: str | None = None
    max_body_bytes: int = protocol.MAX_BODY_BYTES
    announce: bool = True


class Daemon:
    """The serve daemon; one instance per listening socket.

    Blocking use (the CLI)::

        Daemon(config).run()

    In-process use (tests)::

        daemon = Daemon(config).start()
        ... # talk to daemon.port
        daemon.stop()
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.store = ArtifactStore(resolve_cache_dir(self.config.cache_dir))
        self.telemetry = obs.Telemetry()
        self.table = serve_jobs.JobTable()
        self.port: int | None = None
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_depth)
        self._tenants: dict[str, ArtifactStore] = {DEFAULT_TENANT: self.store}
        self._tenants_lock = threading.Lock()
        self._state = STARTING
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_requested = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self._dispatcher_busy = False
        self._dispatcher_stop = False
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    def run(self) -> None:
        """Serve until shutdown is requested (blocking)."""
        asyncio.run(self._main())

    def start(self, timeout: float = 30.0) -> "Daemon":
        """Run the daemon in a background thread; returns once ready."""
        self._thread = threading.Thread(
            target=self.run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve daemon failed to become ready")
        return self

    def stop(self, timeout: float | None = None) -> None:
        """Request shutdown and wait for the drain to finish."""
        self.request_shutdown()
        self._stopped.wait(
            self.config.drain_timeout + 5.0 if timeout is None else timeout
        )
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def request_shutdown(self) -> None:
        """Begin a graceful drain (thread- and signal-safe)."""
        self._shutdown_requested.set()
        # Refuse new work immediately: the async loop only notices the
        # event on its next tick, and a submit racing into that window
        # must still see a draining daemon.
        if self._state == READY:
            self._state = DRAINING
        loop = self._loop
        if loop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(lambda: None)  # wake the waiter

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._install_signal_handlers()
        with obs.use(self.telemetry):
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-serve-dispatch",
                daemon=True,
            )
            self._dispatcher.start()
            server = await asyncio.start_server(
                self._handle, self.config.host, self.config.port
            )
            self.port = server.sockets[0].getsockname()[1]
            self._state = READY
            self._ready.set()
            if self.config.announce:
                print(
                    f"[serve] listening on http://{self.config.host}:{self.port} "
                    f"workers={self.config.workers} "
                    f"queue_depth={self.config.queue_depth} "
                    f"store={self.store.root}",
                    flush=True,
                )
            try:
                while not self._shutdown_requested.is_set():
                    await asyncio.sleep(0.05)
                self._state = DRAINING
                obs.count("serve.drains")
                deadline = time.monotonic() + self.config.drain_timeout
                # The listener stays open while draining so clients can
                # keep polling the jobs they already submitted.
                while time.monotonic() < deadline and (
                    self._queue.qsize() or self._dispatcher_busy
                ):
                    await asyncio.sleep(0.05)
            finally:
                self._dispatcher_stop = True
                server.close()
                await server.wait_closed()
                if self._dispatcher is not None:
                    self._dispatcher.join(timeout=10.0)
                with self._tenants_lock:
                    stores = list(self._tenants.values())
                for store in stores:
                    store.release_pins()
                self._state = STOPPED
                self._ready.set()  # never leave start() hanging on a crash
                self._stopped.set()
                if self.config.announce:
                    counts = self.table.counts()
                    print(
                        f"[serve] stopped: done={counts[serve_jobs.DONE]} "
                        f"failed={counts[serve_jobs.FAILED]} "
                        f"queued={counts[serve_jobs.QUEUED]}",
                        flush=True,
                    )

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError, RuntimeError):
                loop.add_signal_handler(signum, self.request_shutdown)

    # -- tenancy -------------------------------------------------------------

    def tenant_store(self, name: str) -> ArtifactStore:
        with self._tenants_lock:
            store = self._tenants.get(name)
            if store is None:
                store = ArtifactStore(self.store.root / "tenants" / name)
                self._tenants[name] = store
        return store

    def _tenant_name(self, request: protocol.Request) -> str:
        name = request.headers.get("x-repro-tenant", DEFAULT_TENANT)
        if name != DEFAULT_TENANT and not _TENANT_RE.match(name):
            raise serve_jobs.BadRequest(
                f"invalid tenant {name!r}: want [a-z0-9][a-z0-9_-]{{0,31}}"
            )
        return name

    # -- dispatcher ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._dispatcher_stop:
                    return
                continue
            batch = [first]
            while len(batch) < self.config.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            self._dispatcher_busy = True
            try:
                groups: dict[str, list] = {}
                for record in batch:
                    groups.setdefault(record.tenant, []).append(record)
                for tenant, records in groups.items():
                    serve_jobs.execute_batch(
                        records, self.tenant_store(tenant), self.config.workers
                    )
                obs.count("serve.batches")
            finally:
                self._dispatcher_busy = False
                for _ in batch:
                    self._queue.task_done()

    # -- the HTTP front end --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await protocol.read_request(
                        reader, max_body=self.config.max_body_bytes
                    )
                except protocol.PayloadTooLarge as exc:
                    obs.count("serve.http.rejected")
                    await protocol.write_response(
                        writer,
                        protocol.json_response(
                            413, {"error": str(exc)}, keep_alive=False
                        ),
                    )
                    return
                except protocol.ProtocolError as exc:
                    obs.count("serve.http.rejected")
                    await protocol.write_response(
                        writer,
                        protocol.json_response(
                            400, {"error": str(exc)}, keep_alive=False
                        ),
                    )
                    return
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                ):
                    # Mid-request disconnect: drop the connection, keep
                    # serving everyone else.
                    obs.count("serve.http.disconnects")
                    return
                if request is None:
                    return
                obs.count("serve.http.requests")
                try:
                    status, payload = self._route(request)
                except serve_jobs.BadRequest as exc:
                    status, payload = 400, {"error": str(exc)}
                except protocol.ProtocolError as exc:
                    status, payload = 400, {"error": str(exc)}
                except Exception as exc:  # route bug: 500, daemon survives
                    obs.count("serve.http.errors")
                    status, payload = 500, {
                        "error": f"{type(exc).__name__}: {exc}"
                    }
                keep = request.keep_alive and status < 500
                await protocol.write_response(
                    writer,
                    protocol.json_response(status, payload, keep_alive=keep),
                )
                if not keep:
                    return
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _route(self, request: protocol.Request) -> tuple[int, dict]:
        path, method = request.path, request.method
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, {"ok": self._state != STOPPED, "state": self._state}
        if path == "/readyz":
            if method != "GET":
                return 405, {"error": "GET only"}
            if self._state == READY:
                return 200, {"ready": True, "state": self._state}
            return 503, {"ready": False, "state": self._state}
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, self._metrics()
        if path == "/v1/jobs":
            if method == "POST":
                return self._submit(request)
            if method == "GET":
                tenant = self._tenant_name(request)
                return 200, {
                    "jobs": [
                        record.to_dict()
                        for record in self.table.snapshot(tenant)
                    ]
                }
            return 405, {"error": "GET or POST"}
        match = _JOB_PATH_RE.match(path)
        if match:
            if method != "GET":
                return 405, {"error": "GET only"}
            record = self.table.get(match.group(1))
            if record is None:
                return 404, {"error": f"no such job {match.group(1)!r}"}
            if match.group(2) is None:
                return 200, record.to_dict()
            if record.state in (serve_jobs.DONE, serve_jobs.FAILED):
                return 200, record.to_dict(include_result=True)
            return 202, {"job_id": record.job_id, "state": record.state}
        if path == "/v1/traces":
            if method != "POST":
                return 405, {"error": "POST only"}
            return self._upload(request)
        if path == "/v1/admin/shutdown":
            if method != "POST":
                return 405, {"error": "POST only"}
            self.request_shutdown()
            return 202, {"state": DRAINING}
        return 404, {"error": f"no route for {path!r}"}

    def _metrics(self) -> dict:
        with self._tenants_lock:
            tenants = sorted(self._tenants)
        return {
            "state": self._state,
            "queue": {
                "depth": self._queue.qsize(),
                "capacity": self.config.queue_depth,
            },
            "jobs": self.table.counts(),
            "tenants": tenants,
            "telemetry": self.telemetry.to_dict(),
        }

    def _submit(self, request: protocol.Request) -> tuple[int, dict]:
        if self._state != READY:
            return 503, {"error": f"daemon is {self._state}"}
        tenant = self._tenant_name(request)
        record = serve_jobs.validate_request(
            request.json(), self.tenant_store(tenant)
        )
        record.tenant = tenant
        try:
            self._queue.put_nowait(record)
        except queue.Full:
            obs.count("serve.http.backpressure")
            return 429, {
                "error": "request queue is full; retry later",
                "queue_depth": self.config.queue_depth,
            }
        self.table.add(record)
        obs.count("serve.jobs.accepted")
        return 202, {
            "job_id": record.job_id,
            "state": record.state,
            "kind": record.kind,
            "tenant": tenant,
            "identity": record.identity,
        }

    def _upload(self, request: protocol.Request) -> tuple[int, dict]:
        if self._state != READY:
            return 503, {"error": f"daemon is {self._state}"}
        tenant = self._tenant_name(request)
        workload = request.query.get("workload", "")
        input_name = request.query.get("input", "")
        if not _NAME_RE.match(workload) or not _NAME_RE.match(input_name):
            raise serve_jobs.BadRequest(
                "trace uploads need ?workload=<name>&input=<name>"
            )
        meta, document, container = protocol.unpack_trace_upload(request.body)
        store = self.tenant_store(tenant)
        spool_dir = store.root / "uploads"
        spool_dir.mkdir(parents=True, exist_ok=True)
        spool = spool_dir / f".upload.{os.getpid()}.{id(request):x}.tmp"
        trace = None
        try:
            # An upload is outside input: parse its ops document and
            # re-derive the fingerprint from what was parsed.
            ops = decode_ops(document)
            spool.write_bytes(container)
            storage = plane.MmapStorage(
                spool, int(meta["events"]), create=False
            )
            trace = store_traces.TraceRecorder.from_storage(
                storage,
                ops=ops["ops"],
                compute_instructions=ops["compute_instructions"],
                max_stack_depth=ops["max_stack_depth"],
            )
            actual = trace_fingerprint(trace)
            declared = meta.get("fingerprint")
            if declared is not None and declared != actual:
                raise serve_jobs.BadRequest(
                    f"trace fingerprint mismatch: body hashes to "
                    f"{actual[:12]}…, upload declared {str(declared)[:12]}…"
                )
            fingerprint = store_traces.remember_and_save(
                store, workload, input_name, trace
            )
            store.pin_trace(fingerprint)
        except serve_jobs.BadRequest:
            raise
        except (plane.TraceError, TypeError, ValueError) as exc:
            raise protocol.ProtocolError(f"trace container rejected: {exc}")
        finally:
            if trace is not None:
                trace.close()
            with contextlib.suppress(OSError):
                spool.unlink()
        obs.count("serve.traces.uploaded")
        return 200, {
            "fingerprint": fingerprint,
            "events": int(meta["events"]),
            "workload": workload,
            "input": input_name,
            "tenant": tenant,
            "bytes": len(request.body),
        }
