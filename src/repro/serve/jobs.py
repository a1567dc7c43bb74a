"""Serve-side jobs: records, request validation, batch execution.

A submitted request becomes a :class:`JobRecord` in the daemon's
:class:`JobTable`.  The dispatcher drains the queue in batches and calls
:func:`execute_batch` once per (batch, tenant):

* Records with identical recipes coalesce — one execution fills every
  coalesced record and the surplus counts as ``serve.jobs.deduped``
  (the serve-layer dedup the soak test asserts on).
* ``experiment`` jobs are planned through the job-graph scheduler
  (:func:`repro.sched.executor.run_experiments_dag`), so *distinct*
  experiment requests still share trace/profile/place stages, warm
  artifacts prune, and the summary's executed/deduped/pruned tallies
  land in each record's ``meta``.
* ``placement`` / ``profile`` / ``stats`` jobs run store-backed: a warm
  store serves them without touching the workload (``meta.warm``), a
  cold one computes and persists for the next request.
* ``sleep`` is a diagnostic no-op that holds the dispatcher for a
  bounded interval — the protocol tests use it to fill the queue and
  exercise backpressure deterministically.

Executors run in the dispatcher thread under ``use_store(tenant store)``;
results are JSON-safe dicts so the daemon can hand them straight to the
wire.  Uploaded traces make non-registry workload names legal for the
trace-derived kinds: validation accepts any name whose (workload, input)
has a ``trace-meta`` entry in the tenant's store.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field

from ..cache.config import PAPER_CACHE, CacheConfig
from ..obs import telemetry as obs
from ..store import keys as store_keys
from ..store import stages as store_stages
from ..store import traces as store_traces
from ..store.store import ArtifactStore, use_store

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Request kinds the daemon accepts.
KINDS = ("experiment", "placement", "profile", "stats", "sleep")

#: Ceiling on one diagnostic sleep, seconds.
MAX_SLEEP_SECONDS = 30.0


class BadRequest(ValueError):
    """A submitted job failed validation (the daemon answers 400)."""


@dataclass
class JobRecord:
    """One submitted job, from queue to terminal state."""

    job_id: str
    tenant: str
    kind: str
    params: dict
    identity: str
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result: dict | None = None
    meta: dict = field(default_factory=dict)

    def to_dict(self, include_result: bool = False) -> dict:
        data = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "params": dict(self.params),
            "identity": self.identity,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "meta": dict(self.meta),
        }
        if include_result:
            data["result"] = self.result
        return data


class JobTable:
    """Thread-safe registry of every job the daemon has seen."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[str, JobRecord] = {}

    def add(self, record: JobRecord) -> None:
        with self._lock:
            self._records[record.job_id] = record

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._records.get(job_id)

    def snapshot(self, tenant: str | None = None) -> list[JobRecord]:
        with self._lock:
            records = list(self._records.values())
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        return sorted(records, key=lambda r: r.submitted_at)

    def counts(self) -> dict[str, int]:
        with self._lock:
            records = list(self._records.values())
        tally = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for record in records:
            tally[record.state] = tally.get(record.state, 0) + 1
        return tally


# -- request validation -------------------------------------------------------


def _parse_cache(raw) -> tuple[int, int, int] | None:
    if raw is None:
        return None
    try:
        size, line, assoc = (int(part) for part in raw)
    except (TypeError, ValueError):
        raise BadRequest(f"cache must be [size, line, assoc], got {raw!r}")
    if size <= 0 or line <= 0 or assoc <= 0:
        raise BadRequest(f"cache geometry must be positive, got {raw!r}")
    return (size, line, assoc)


def _registry_workloads() -> list[str]:
    from ..workloads import workload_names

    return workload_names()


def _has_uploaded_trace(
    store: ArtifactStore, workload: str, input_name: str
) -> bool:
    with store.probing():
        return (
            store_stages.known_fingerprint(store, workload, input_name)
            is not None
        )


def validate_request(payload: dict, tenant_store: ArtifactStore) -> JobRecord:
    """Turn one submit body into a queued :class:`JobRecord`.

    Raises :class:`BadRequest` with a client-facing message on any
    validation failure.  ``identity`` is a canonical digest over the
    normalized recipe — the coalescing key for batch-level dedup.
    """
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise BadRequest(
            f"unknown job kind {kind!r}; expected one of {', '.join(KINDS)}"
        )
    params: dict = {}
    if kind == "sleep":
        try:
            seconds = float(payload.get("seconds", 0.05))
        except (TypeError, ValueError):
            raise BadRequest("sleep seconds must be a number")
        if not 0 <= seconds <= MAX_SLEEP_SECONDS:
            raise BadRequest(
                f"sleep seconds must be in [0, {MAX_SLEEP_SECONDS:g}]"
            )
        params["seconds"] = seconds
    else:
        workload = payload.get("workload")
        if not isinstance(workload, str) or not workload:
            raise BadRequest(f"{kind} jobs need a workload name")
        registry = workload in _registry_workloads()
        params["workload"] = workload
        input_name = payload.get("input")
        if input_name is not None and not isinstance(input_name, str):
            raise BadRequest("input must be a string")
        if kind == "experiment":
            if not registry:
                raise BadRequest(
                    f"experiment jobs need a registry workload; "
                    f"{workload!r} is not one"
                )
            params["same_input"] = bool(payload.get("same_input", False))
            params["include_random"] = bool(
                payload.get("include_random", False)
            )
        else:
            if registry:
                from ..workloads import make_workload

                default_input = make_workload(workload).train_input
            else:
                default_input = input_name
            resolved = input_name or default_input
            if not resolved:
                raise BadRequest(
                    f"{kind} jobs for uploaded workloads need an input name"
                )
            if not registry and not _has_uploaded_trace(
                tenant_store, workload, resolved
            ):
                raise BadRequest(
                    f"unknown workload {workload!r}: not in the registry and "
                    f"no uploaded trace for input {resolved!r}"
                )
            params["input"] = resolved
            if kind == "placement":
                place_heap = payload.get("place_heap")
                if place_heap is None and registry:
                    from ..workloads import make_workload

                    place_heap = make_workload(workload).place_heap
                params["place_heap"] = bool(place_heap)
                mode = payload.get("mode", "static")
                if mode not in ("static", "adaptive"):
                    raise BadRequest(
                        f"placement mode must be 'static' or 'adaptive', "
                        f"got {mode!r}"
                    )
                params["mode"] = mode
                if mode == "adaptive":
                    try:
                        window_events = int(payload.get("window_events", 1024))
                        cadence = int(payload.get("cadence", 1))
                    except (TypeError, ValueError):
                        raise BadRequest(
                            "window_events and cadence must be integers"
                        )
                    if window_events <= 0 or cadence <= 0:
                        raise BadRequest(
                            "window_events and cadence must be positive"
                        )
                    params["window_events"] = window_events
                    params["cadence"] = cadence
        params["cache"] = _parse_cache(payload.get("cache"))
    identity = store_keys.digest_json({"kind": kind, "params": params})
    return JobRecord(
        job_id=uuid.uuid4().hex[:12],
        tenant="",  # filled by the daemon
        kind=kind,
        params=params,
        identity=identity,
    )


# -- execution ----------------------------------------------------------------


def _config(params: dict) -> CacheConfig | None:
    cache = params.get("cache")
    return CacheConfig(*cache) if cache else None


def _load_or_record_trace(store: ArtifactStore, workload: str, input_name: str):
    """Attach the tenant's persisted trace, recording it if absent.

    Deliberately avoids the cross-process memo in
    :mod:`repro.experiments.common`: its LRU is keyed by (workload,
    input) alone, and two tenants may legitimately upload *different*
    traces under the same names.  The store attach is zero-copy, so
    skipping the memo costs a header read, not a workload run.
    """
    trace = store_traces.load_trace(store, workload, input_name)
    if trace is not None:
        store.pin_trace(store_keys.trace_fingerprint(trace))
        return trace
    from ..trace.buffer import record_trace
    from ..workloads import make_workload, workload_names

    if workload not in workload_names():
        raise BadRequest(
            f"no trace for {workload!r}/{input_name!r} in this tenant's store"
        )
    trace = record_trace(make_workload(workload), input_name)
    store.pin_trace(
        store_traces.remember_and_save(store, workload, input_name, trace)
    )
    return trace


@dataclass
class _Stub:
    """Stand-in workload for trace-derived stages on uploaded names."""

    name: str
    train_input: str
    place_heap: bool = False


def _experiment_json(result, params: dict) -> dict:
    from ..trace.events import Category

    def arm(measure) -> dict:
        cache = measure.cache
        return {
            "miss_rate_pct": cache.miss_rate,
            "by_category": {
                category.label.lower(): cache.category_miss_rate(category)
                for category in Category
            },
        }

    data = {
        "workload": result.workload,
        "train_input": result.train_input,
        "test_input": result.test_input,
        "cache": params.get("cache"),
        "original": arm(result.original),
        "ccdp": arm(result.ccdp),
        "reduction_pct": result.miss_reduction_pct,
        "placement_digest": store_stages.placement_digest(result.placement),
    }
    if result.random is not None:
        data["random"] = arm(result.random)
    return data


def _run_experiment_group(records: list[JobRecord], workers: int) -> None:
    """Execute the batch's distinct experiment recipes as one job graph."""
    from ..runtime.faults import RetryPolicy
    from ..runtime.parallel import ExperimentSpec
    from ..sched.executor import run_experiments_dag

    by_identity: dict[str, list[JobRecord]] = {}
    for record in records:
        by_identity.setdefault(record.identity, []).append(record)
    groups = list(by_identity.values())
    specs = [
        ExperimentSpec(
            workload=group[0].params["workload"],
            same_input=group[0].params["same_input"],
            include_random=group[0].params["include_random"],
            cache_config=_config(group[0].params) or PAPER_CACHE,
        )
        for group in groups
    ]
    # Best-effort: one client's failing (or fault-injected) spec becomes
    # that job's failed state while the rest of the batch completes.
    results, _graph, summary = run_experiments_dag(
        specs, jobs=workers, policy=RetryPolicy(best_effort=True)
    )
    summary_meta = {
        "stages_total": summary.total,
        "stages_executed": summary.executed,
        "stages_deduped": summary.deduped,
        "stages_pruned": summary.pruned,
    }
    obs.count("serve.stages.executed", summary.executed)
    obs.count("serve.stages.deduped", summary.deduped)
    obs.count("serve.stages.pruned", summary.pruned)
    for group, spec, result in zip(groups, specs, results):
        for record in group:
            if result is None:
                _fail(record, "experiment shard failed; see daemon fan-out report")
                continue
            record.meta.update(summary_meta)
            _finish(record, _experiment_json(result, record.params))


def _run_placement(record: JobRecord, store: ArtifactStore) -> dict:
    from ..profiling.serialize import placement_to_dict
    from ..runtime.driver import build_placement

    params = record.params
    workload, input_name = params["workload"], params["input"]
    config = _config(params) or PAPER_CACHE
    place_heap = params["place_heap"]
    if params.get("mode") == "adaptive":
        from ..adaptive import run_adaptive

        record.meta["warm"] = False
        obs.count("serve.stages.executed")
        trace = _load_or_record_trace(store, workload, input_name)
        result = run_adaptive(
            trace,
            config,
            place_heap=place_heap,
            window_events=params["window_events"],
            cadence=params["cadence"],
        )
        return {
            "workload": workload,
            "train_input": input_name,
            "cache": params.get("cache"),
            "place_heap": place_heap,
            "mode": "adaptive",
            "windows": len(result.windows),
            "replacements": result.replacements,
            "miss_rate": result.miss_rate,
            "digest": store_stages.placement_digest(result.final_placement),
            "placement": placement_to_dict(result.final_placement),
        }
    pair = store_stages.try_load_placement_pair(
        store, workload, input_name, config, place_heap
    )
    if pair is not None:
        record.meta["warm"] = True
        obs.count("serve.jobs.warm")
        _profile, placement = pair
    else:
        record.meta["warm"] = False
        obs.count("serve.stages.executed")
        trace = _load_or_record_trace(store, workload, input_name)
        _profile, placement = build_placement(
            _Stub(workload, input_name, place_heap),
            input_name,
            config,
            place_heap=place_heap,
            trace=trace,
        )
    return {
        "workload": workload,
        "train_input": input_name,
        "cache": params.get("cache"),
        "place_heap": place_heap,
        "digest": store_stages.placement_digest(placement),
        "placement": placement_to_dict(placement),
    }


def _run_profile(record: JobRecord, store: ArtifactStore) -> dict:
    from ..profiling.serialize import profile_to_dict
    from ..runtime.driver import profile_workload

    params = record.params
    workload, input_name = params["workload"], params["input"]
    config = _config(params) or PAPER_CACHE
    warm = store_stages.has_profile(store, workload, input_name, config)
    record.meta["warm"] = warm
    obs.count("serve.jobs.warm" if warm else "serve.stages.executed")
    trace = _load_or_record_trace(store, workload, input_name)
    profile = profile_workload(
        _Stub(workload, input_name), input_name, config, trace=trace
    )
    encoded = profile_to_dict(profile)
    return {
        "workload": workload,
        "input": input_name,
        "cache": params.get("cache"),
        "entities": len(profile.entities),
        "trg_edges": len(encoded["trg"]),
        "digest": store_keys.digest_json(encoded),
    }


def _run_stats(record: JobRecord, store: ArtifactStore) -> dict:
    from ..store.artifacts import workload_stats_to_dict

    params = record.params
    workload, input_name = params["workload"], params["input"]
    with store.probing() as probe:
        stats = store_stages.try_load_workload_stats(store, workload, input_name)
    warm = stats is not None
    if warm:
        probe.commit()
        obs.count("serve.jobs.warm")
    else:
        trace = _load_or_record_trace(store, workload, input_name)
        stats = store_stages.cached_workload_stats(store, trace, trace.stats)
        obs.count("serve.stages.executed")
    record.meta["warm"] = warm
    return {
        "workload": workload,
        "input": input_name,
        "stats": workload_stats_to_dict(stats),
    }


def _finish(record: JobRecord, result: dict) -> None:
    record.result = result
    record.state = DONE
    record.finished_at = time.time()
    obs.count("serve.jobs.completed")


def _fail(record: JobRecord, error: str) -> None:
    record.error = error
    record.state = FAILED
    record.finished_at = time.time()
    obs.count("serve.jobs.failed")


def execute_batch(
    records: list[JobRecord], store: ArtifactStore, workers: int
) -> None:
    """Run one tenant's slice of a dispatcher batch to terminal states.

    Never raises: a failing group marks its records ``failed`` (error
    message preserved) and the remaining groups still run — a fault
    injected into one client's job must not take out its neighbours,
    let alone the daemon.
    """
    now = time.time()
    for record in records:
        record.state = RUNNING
        record.started_at = now
    with use_store(store):
        experiments = [r for r in records if r.kind == "experiment"]
        if experiments:
            deduped = len(experiments) - len(
                {r.identity for r in experiments}
            )
            if deduped:
                obs.count("serve.jobs.deduped", deduped)
            try:
                _run_experiment_group(experiments, workers)
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}"
                for record in experiments:
                    if record.state == RUNNING:
                        _fail(record, message)
        runners = {
            "placement": _run_placement,
            "profile": _run_profile,
            "stats": _run_stats,
        }
        local = [r for r in records if r.kind in runners]
        by_identity: dict[str, list[JobRecord]] = {}
        for record in local:
            by_identity.setdefault(record.identity, []).append(record)
        for group in by_identity.values():
            if len(group) > 1:
                obs.count("serve.jobs.deduped", len(group) - 1)
            lead = group[0]
            try:
                result = runners[lead.kind](lead, store)
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}"
                for record in group:
                    _fail(record, message)
                continue
            for record in group:
                record.meta.update(lead.meta)
                _finish(record, result)
        for record in records:
            if record.kind == "sleep":
                time.sleep(record.params["seconds"])
                _finish(record, {"slept": record.params["seconds"]})
