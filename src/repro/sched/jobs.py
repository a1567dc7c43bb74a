"""Job recipes: experiment specs expanded into stage-typed graph nodes.

:func:`plan_experiments` turns a list of
:class:`~repro.runtime.parallel.ExperimentSpec` into one
:class:`~repro.sched.graph.JobGraph`:

* one **trace** job per distinct (workload, input) — record once,
  persist the memmap columns;
* one **profile** and one **place** job per distinct (workload, train
  input, geometry, placer) recipe — Table 2 and Table 4 requests for the
  same program collapse onto the same nodes here;
* one **measure** job per (workload, test input, placement arm);
* one **aggregate** node per spec, executed in the parent, that
  reassembles the :class:`~repro.runtime.driver.ExperimentResult`.

Job identity is a digest over the recipe built with
:func:`repro.store.keys.store_key` — the same canonical-JSON + salt
machinery as the artifact store — so a job's key changes exactly when
its store entries would.

Every stage artifact of a run ends up in one in-memory *bag* keyed by
:func:`bag_key`: :func:`probe_graph` decodes the warm ones from the
store, and the executor files each executed job's artifact as it
settles (pooled workers ship theirs back in the job payload).
:func:`assemble_experiment` reads only the bag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..cache.config import CacheConfig
from ..obs import telemetry as obs
from ..profiling.serialize import placement_from_dict, profile_from_dict
from ..store import keys as store_keys
from ..store import stages as store_stages
from ..store import traces as store_traces
from ..store.artifacts import measure_result_from_dict
from ..store.store import ArtifactStore
from .costs import job_cost
from .graph import SATISFIED, Job, JobGraph

#: Seed the experiment harnesses use for the random-placement arm.
RANDOM_SEED = 12345


@dataclass(frozen=True)
class JobSpec:
    """One stage execution, picklable (strings and scalars only)."""

    kind: str  # trace | profile | place | measure
    workload: str
    input_name: str
    cache: tuple | None = None  # (size, line_size, associativity)
    train_input: str | None = None  # measure(ccdp): where the placement trained
    place_heap: bool = False
    placement_engine: str = "array"
    cost_model: str = "direct"  # place: direct | assoc | two-level
    policy: str = "natural"  # measure: natural | ccdp | random
    seed: int = RANDOM_SEED
    classify: bool = False
    track_pages: bool = False

    @property
    def label(self) -> str:
        suffix = f":{self.policy}" if self.kind == "measure" else ""
        return f"{self.kind}:{self.workload}/{self.input_name}{suffix}"


def _cache_tuple(config: CacheConfig | None) -> tuple | None:
    if config is None:
        return None
    return (config.size, config.line_size, config.associativity)


def _config(spec: JobSpec) -> CacheConfig | None:
    return CacheConfig(*spec.cache) if spec.cache else None


def _job_key(kind: str, fields: dict) -> str:
    """Graph identity for one job: store-key digest over its recipe."""
    return store_keys.store_key(f"job/{kind}", fields)


def bag_key(spec: JobSpec) -> tuple:
    """In-memory artifact key for store-less runs (semantic, not digest)."""
    base: tuple = (spec.kind, spec.workload, spec.input_name, spec.cache)
    if spec.kind == "place":
        base += (spec.place_heap, spec.placement_engine, spec.cost_model)
    elif spec.kind == "measure":
        base += (spec.policy, spec.seed, spec.classify, spec.track_pages)
    return base


# -- graph construction -------------------------------------------------------


def _trace_job(graph: JobGraph, workload: str, input_name: str) -> Job:
    spec = JobSpec(kind="trace", workload=workload, input_name=input_name)
    return graph.add(
        "trace",
        _job_key("trace", {"workload": workload, "input": input_name}),
        label=spec.label,
        spec=spec,
        cost=job_cost("trace", workload),
    )


def plan_experiments(specs) -> tuple[JobGraph, list[Job]]:
    """Expand experiment specs into one deduplicated job graph.

    Returns the sealed graph and the per-spec aggregate jobs (in spec
    order).
    """
    from ..core.cost_model import COST_MODEL_NAMES
    from ..workloads import make_workload

    graph = JobGraph()
    aggregates: list[Job] = []
    params = store_stages.profile_params(None)
    for spec in specs:
        if spec.cost_model not in COST_MODEL_NAMES:
            raise ValueError(
                f"unknown cost model {spec.cost_model!r}; "
                f"expected one of {COST_MODEL_NAMES}"
            )
        workload = make_workload(spec.workload)
        name = workload.name
        train = workload.train_input
        test = train if spec.same_input else workload.test_input
        config = spec.cache_config
        cache = _cache_tuple(config)
        cache_fields = store_keys.config_fields(config)
        heap = workload.place_heap

        t_train = _trace_job(graph, name, train)
        t_test = t_train if test == train else _trace_job(graph, name, test)

        profile_spec = JobSpec(
            kind="profile", workload=name, input_name=train, cache=cache
        )
        profile = graph.add(
            "profile",
            _job_key(
                "profile",
                {
                    "workload": name,
                    "input": train,
                    "cache": cache_fields,
                    "params": params,
                },
            ),
            label=profile_spec.label,
            spec=profile_spec,
            deps=[t_train],
            cost=job_cost("profile", name),
        )
        place_spec = JobSpec(
            kind="place",
            workload=name,
            input_name=train,
            cache=cache,
            place_heap=heap,
            cost_model=spec.cost_model,
        )
        place_fields = {
            "workload": name,
            "input": train,
            "cache": cache_fields,
            "params": params,
            "place_heap": heap,
            "engine": place_spec.placement_engine,
        }
        # Mirror the store-key schema: the default model stays out of the
        # recipe so pre-existing place jobs keep their identity.
        if spec.cost_model != "direct":
            place_fields["cost_model"] = spec.cost_model
        place = graph.add(
            "place",
            _job_key("place", place_fields),
            label=place_spec.label,
            spec=place_spec,
            deps=[profile],
            cost=job_cost("place", name),
        )

        def measure_job(policy: str, deps: list[Job]) -> Job:
            measure_spec = JobSpec(
                kind="measure",
                workload=name,
                input_name=test,
                cache=cache,
                train_input=train,
                place_heap=heap,
                cost_model=spec.cost_model,
                policy=policy,
                classify=spec.classify,
                track_pages=spec.track_pages,
            )
            fields = {
                "workload": name,
                "input": test,
                "cache": cache_fields,
                "classify": spec.classify,
                "track_pages": spec.track_pages,
                "policy": policy,
            }
            if policy == "random":
                fields["seed"] = measure_spec.seed
            elif policy == "ccdp":
                # The placement digest is unknown until the place job
                # runs; its *job key* stands in — same recipe, same arm.
                fields["place_job"] = place.key
            return graph.add(
                "measure",
                _job_key("measure", fields),
                label=measure_spec.label,
                spec=measure_spec,
                deps=deps,
                cost=job_cost("measure", name),
            )

        original = measure_job("natural", [t_test])
        ccdp = measure_job("ccdp", [t_test, place])
        random_m = (
            measure_job("random", [t_test]) if spec.include_random else None
        )

        agg_deps = [profile, place, original, ccdp]
        if random_m is not None:
            agg_deps.append(random_m)
        aggregate_fields = {
            "workload": name,
            "train": train,
            "test": test,
            "cache": cache_fields,
            "include_random": spec.include_random,
            "classify": spec.classify,
            "track_pages": spec.track_pages,
        }
        if spec.cost_model != "direct":
            aggregate_fields["cost_model"] = spec.cost_model
        aggregate = graph.add(
            "aggregate",
            _job_key("aggregate", aggregate_fields),
            label=f"aggregate:{name}/{test}",
            spec=spec,
            deps=agg_deps,
            cost=job_cost("aggregate", name),
        )
        aggregate.meta.setdefault("roles", {}).update(
            {
                "profile": profile,
                "place": place,
                "original": original,
                "ccdp": ccdp,
                "random": random_m,
            }
        )
        aggregates.append(aggregate)
    graph.seal()
    return graph, aggregates


# -- warm-prune probe pass: the graph's warm loader ---------------------------


def _trace_data_present(store: ArtifactStore, fingerprint: str) -> bool:
    fields = {"fingerprint": fingerprint}
    payload = store.get(
        store_traces.KIND_TRACE, store.key(store_traces.KIND_TRACE, fields)
    )
    if not isinstance(payload, dict):
        return False
    path = store_traces.trace_data_path(store, fingerprint)
    try:
        return path.stat().st_size == int(payload.get("data_bytes", -1))
    except (OSError, TypeError, ValueError):
        return False


def _load_artifact(store: ArtifactStore, job: Job, fingerprint: str):
    """Decode one profile/place/measure job's store entry, or None."""
    spec: JobSpec = job.spec
    config = _config(spec)
    params = store_stages.profile_params(None)
    if spec.kind == "profile":
        return store_stages._load(
            store,
            store_stages.KIND_PROFILE,
            store_stages._profile_fields(fingerprint, config, params),
            profile_from_dict,
        )
    if spec.kind == "place":
        return store_stages._load(
            store,
            store_stages.KIND_PLACEMENT,
            store_stages._placement_fields(
                fingerprint,
                config,
                spec.place_heap,
                spec.placement_engine,
                params,
                spec.cost_model,
            ),
            placement_from_dict,
        )
    policy = _measure_policy(spec, job)
    if policy is None:
        return None
    return store_stages._load(
        store,
        store_stages.KIND_MEASURE,
        store_stages._measure_fields(
            fingerprint, config, policy, spec.classify, spec.track_pages
        ),
        measure_result_from_dict,
    )


def _measure_policy(spec: JobSpec, job: Job) -> dict | None:
    """Store policy fields for one measure job (None when undecidable)."""
    if spec.policy == "natural":
        return {"kind": "natural"}
    if spec.policy == "random":
        from ..runtime.resolvers import RandomResolver

        return store_stages.resolver_policy(RandomResolver(seed=spec.seed))
    # ccdp: the placement digest comes from the warm-loaded place job.
    for dep in job.deps:
        if dep.kind == "place":
            digest = dep.meta.get("placement_digest")
            if digest is None:
                return None
            return {
                "kind": "ccdp",
                "placement": digest,
                "compact_heap": False,
            }
    return None


def probe_graph(store: ArtifactStore, graph: JobGraph, bag: dict | None = None) -> int:
    """Prune every warm job, decoding its artifact into ``bag``; returns count.

    Each (workload, input) fingerprint is read once per pass, and each
    warm profile, placement and measurement entry is read and decoded
    once, into the bag that assembly reads.  Trace jobs are probed after
    their dependents: a trace whose dependents are all warm is pruned
    without reading its ``trace`` entry (which lists every lifetime op);
    one with cold dependents is pruned only when its columns are on disk.

    Lookups run under :meth:`ArtifactStore.probing` and only their hits
    are committed: a miss here is counted again by the job that
    computes the artifact.
    """
    bag = {} if bag is None else bag
    fingerprints: dict[tuple[str, str], str | None] = {}

    def fingerprint_of(spec: JobSpec) -> str | None:
        where = (spec.workload, spec.input_name)
        if where not in fingerprints:
            fingerprints[where] = store_stages.known_fingerprint(store, *where)
        return fingerprints[where]

    pruned = 0
    with store.probing() as probe:
        order = graph.topo_order()
        for job in order:
            if job.kind in ("trace", "aggregate"):
                continue
            fingerprint = fingerprint_of(job.spec)
            if fingerprint is None:
                continue
            artifact = _load_artifact(store, job, fingerprint)
            if artifact is None:
                continue
            if job.kind == "place":
                job.meta["placement_digest"] = store_stages.placement_digest(artifact)
            bag[bag_key(job.spec)] = artifact
            graph.mark_pruned(job)
            pruned += 1
        for job in order:
            if job.kind != "trace":
                continue
            if all(dep.state in SATISFIED for dep in job.dependents):
                graph.mark_pruned(job)
                pruned += 1
                continue
            fingerprint = fingerprint_of(job.spec)
            if fingerprint is not None and _trace_data_present(store, fingerprint):
                graph.mark_pruned(job)
                pruned += 1
    probe.commit()
    return pruned


# -- stage execution ----------------------------------------------------------


def run_job(spec: JobSpec, bag: dict | None = None) -> dict:
    """Execute one stage job; artifacts persist to the active store.

    ``bag`` (inline runs) supplies dependency artifacts already in
    memory.  The returned payload carries the job's wall seconds plus
    its artifact (profile / placement / measurement — ``None`` for
    traces, whose columns stay in the trace memo and the store), which
    the executor files in the run's bag: each deduplicated stage crosses
    the process boundary once and assembly never re-decodes it.
    """
    start = time.perf_counter()
    artifact = None
    with obs.span("sched.job", kind=spec.kind, task=spec.label):
        if spec.kind == "trace":
            _run_trace(spec)
        elif spec.kind == "profile":
            artifact = _run_profile(spec)
        elif spec.kind == "place":
            artifact = _run_place(spec, bag)
        elif spec.kind == "measure":
            artifact = _run_measure(spec, bag)
        else:
            raise ValueError(f"unknown job kind: {spec.kind!r}")
    return {"seconds": time.perf_counter() - start, "artifact": artifact}


def _run_trace(spec: JobSpec) -> None:
    from ..experiments.common import cached_trace

    cached_trace(spec.workload, spec.input_name)


def _run_profile(spec: JobSpec):
    from ..experiments.common import cached_trace
    from ..runtime.driver import profile_workload
    from ..workloads import make_workload

    return profile_workload(
        make_workload(spec.workload),
        spec.input_name,
        _config(spec),
        trace=cached_trace(spec.workload, spec.input_name),
    )


def _run_place(spec: JobSpec, bag: dict | None):
    from ..core.algorithm import CCDPPlacer
    from ..core.cost_model import resolve_cost_model
    from ..experiments.common import cached_trace
    from ..runtime.driver import build_placement
    from ..store import current_store
    from ..workloads import make_workload

    config = _config(spec)
    trace = cached_trace(spec.workload, spec.input_name)
    profile = None
    if bag is not None:
        profile = bag.get(
            bag_key(
                JobSpec(
                    kind="profile",
                    workload=spec.workload,
                    input_name=spec.input_name,
                    cache=spec.cache,
                )
            )
        )
    if profile is None:
        _profile, placement = build_placement(
            make_workload(spec.workload),
            spec.input_name,
            config,
            place_heap=spec.place_heap,
            trace=trace,
            placement_engine=spec.placement_engine,
            cost_model=spec.cost_model,
        )
        return placement

    # The profile is already in memory: place from it instead of
    # re-decoding the store entry.
    def compute():
        return CCDPPlacer(
            profile,
            cache_config=config,
            place_heap=spec.place_heap,
            engine=spec.placement_engine,
            cost_model=resolve_cost_model(spec.cost_model, config, trace),
        ).place()

    store = current_store()
    if store is None:
        return compute()
    return store_stages.cached_placement(
        store,
        trace,
        config,
        spec.place_heap,
        spec.placement_engine,
        store_stages.profile_params({}),
        compute,
        cost_model=spec.cost_model,
    )


def _load_placement_for(spec: JobSpec, bag: dict | None):
    """The placement a ccdp measure job simulates under."""
    from ..store import current_store

    if bag is not None:
        placement = bag.get(
            bag_key(
                JobSpec(
                    kind="place",
                    workload=spec.workload,
                    input_name=spec.train_input,
                    cache=spec.cache,
                    place_heap=spec.place_heap,
                    placement_engine=spec.placement_engine,
                    cost_model=spec.cost_model,
                )
            )
        )
        if placement is not None:
            return placement
    store = current_store()
    if store is not None:
        placement = store_stages.try_load_placement(
            store,
            spec.workload,
            spec.train_input,
            _config(spec),
            spec.place_heap,
            spec.placement_engine,
            cost_model=spec.cost_model,
        )
        if placement is not None:
            return placement
    # Dependency artifact unavailable (evicted mid-run?): recompute.
    from ..experiments.common import cached_trace
    from ..runtime.driver import build_placement
    from ..workloads import make_workload

    _profile, placement = build_placement(
        make_workload(spec.workload),
        spec.train_input,
        _config(spec),
        place_heap=spec.place_heap,
        trace=cached_trace(spec.workload, spec.train_input),
        placement_engine=spec.placement_engine,
        cost_model=spec.cost_model,
    )
    return placement


def _run_measure(spec: JobSpec, bag: dict | None):
    from ..experiments.common import cached_trace
    from ..runtime.driver import measure_trace
    from ..runtime.resolvers import (
        CCDPResolver,
        NaturalResolver,
        RandomResolver,
    )

    trace = cached_trace(spec.workload, spec.input_name)
    if spec.policy == "natural":
        resolver = NaturalResolver()
    elif spec.policy == "random":
        resolver = RandomResolver(seed=spec.seed)
    else:
        resolver = CCDPResolver(_load_placement_for(spec, bag))
    return measure_trace(
        trace,
        resolver,
        _config(spec),
        classify=spec.classify,
        track_pages=spec.track_pages,
    )


def job_entry(args: tuple) -> tuple[dict, dict | None]:
    """Pooled worker entry: one stage job against the parent's store root."""
    from ..runtime.parallel import _install_worker_store

    spec, store_root, with_telemetry = args
    if not with_telemetry:
        with _install_worker_store(store_root):
            return run_job(spec), None
    registry = obs.Telemetry()
    with obs.use(registry), _install_worker_store(store_root):
        payload = run_job(spec)
        obs.sample_peak_rss()
    return payload, registry.to_dict()


# -- aggregate assembly -------------------------------------------------------


def assemble_experiment(aggregate: Job, bag: dict):
    """Build one spec's ExperimentResult from the bag, or None.

    Every role's artifact is in the bag once its job executed this run
    or was warm-loaded by :func:`probe_graph`; a missing one means the
    role never settled and the spec is reported failed.
    """
    from ..runtime.driver import ExperimentResult

    roles = aggregate.meta["roles"]
    artifacts = {
        role: bag.get(bag_key(job.spec))
        for role, job in roles.items()
        if job is not None
    }
    if any(artifact is None for artifact in artifacts.values()):
        return None
    return ExperimentResult(
        workload=roles["profile"].spec.workload,
        train_input=roles["profile"].spec.input_name,
        test_input=roles["original"].spec.input_name,
        profile=artifacts["profile"],
        placement=artifacts["place"],
        original=artifacts["original"],
        ccdp=artifacts["ccdp"],
        random=artifacts.get("random"),
    )
