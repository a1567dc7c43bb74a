"""Outside-in layer tracing: spans around ``repro`` entry points.

The benchmark does not instrument ``repro`` itself.  :class:`Tracer`
replaces each entry point listed in :data:`ENTRY_POINTS` by a wrapper that
records a :class:`Span` (name, start, end, parent, pass id) and puts the
original back on :meth:`Tracer.uninstall`.  A function is patched in its
defining module *and* in every loaded ``repro`` module that imported the
name, because a caller looks the name up in its own module.  Methods are
patched on their class.

A span's self time is its duration minus the durations of its direct
children (one thread, so children never overlap); the residual of a pass
is its wall time minus the self time of every span in it, which is the
time no wrapped layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    """One call of a wrapped entry point.

    ``parent`` indexes the enclosing span in the same pass (-1 for none).
    ``events`` is the volume the call handled and ``flag`` a yes/no about
    it, both as the entry point's ``volume`` function reads them (for
    example a store hit, or a simulator on its per-access path).
    """

    name: str
    start: float
    end: float
    parent: int
    pass_id: int
    events: int = 0
    flag: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _no_volume(args, kwargs, result) -> tuple[int, bool]:
    return 0, False


def _result_events(args, kwargs, result) -> tuple[int, bool]:
    return int(result.events), False


def _trace_kwarg_events(args, kwargs, result) -> tuple[int, bool]:
    trace = kwargs.get("trace")
    return (int(trace.events) if trace is not None else 0), False


def _first_arg_len(args, kwargs, result) -> tuple[int, bool]:
    return len(args[0]), False


def _consume_events(args, kwargs, result) -> tuple[int, bool]:
    # args = (simulator, addr, size, obj_id, category, is_store)
    return len(args[1]), not args[0].vectorized


def _store_hit(args, kwargs, result) -> tuple[int, bool]:
    return 0, result is not None


def _dirty_entities(args, kwargs, result) -> tuple[int, bool]:
    return int(result.dirty_entities), False


@dataclass(frozen=True)
class EntryPoint:
    """A wrapped callable: ``module:qualname`` plus its span name and layer."""

    layer: str
    name: str
    module: str
    qualname: str
    volume: Callable = _no_volume


#: Every wrapped entry point, by layer.  The layer names follow the
#: ``repro`` packages they wrap (``trace`` is ``repro.trace``, ``cache`` is
#: ``repro.cache``, and so on).
ENTRY_POINTS = (
    EntryPoint("trace", "record_trace", "repro.trace.buffer", "record_trace",
               _result_events),
    EntryPoint("trace", "collect_stats", "repro.runtime.driver",
               "collect_stats", _trace_kwarg_events),
    EntryPoint("profiling", "profile_workload", "repro.runtime.driver",
               "profile_workload", _trace_kwarg_events),
    EntryPoint("profiling", "window_profile", "repro.adaptive.windows",
               "window_profile"),
    EntryPoint("profiling", "build_entity_map", "repro.adaptive.windows",
               "build_entity_map"),
    EntryPoint("profiling", "window_trg", "repro.adaptive.windows",
               "window_trg", _first_arg_len),
    EntryPoint("profiling", "window_push", "repro.adaptive.windows",
               "WindowAggregator.push"),
    EntryPoint("profiling", "apply_edge_deltas", "repro.core.cache_struct",
               "TRGIndex.apply_edge_deltas"),
    EntryPoint("core", "place", "repro.core.algorithm", "CCDPPlacer.place"),
    EntryPoint("core", "delta_replace", "repro.adaptive.replace",
               "delta_replace", _dirty_entities),
    EntryPoint("cache", "measure_trace", "repro.runtime.driver",
               "measure_trace"),
    EntryPoint("cache", "consume", "repro.cache.batch",
               "BatchCacheSimulator.consume", _consume_events),
    EntryPoint("store", "get", "repro.store.store", "ArtifactStore.get",
               _store_hit),
    EntryPoint("store", "put", "repro.store.store", "ArtifactStore.put"),
    EntryPoint("store", "save_trace", "repro.store.traces", "save_trace"),
    EntryPoint("store", "remember_and_save", "repro.store.traces",
               "remember_and_save"),
    EntryPoint("store", "load_trace", "repro.store.traces", "load_trace"),
    # Warm loads: their self time is decoding entries into objects.
    EntryPoint("store", "try_load_experiment", "repro.store.stages",
               "try_load_experiment"),
    EntryPoint("store", "try_load_placement_pair", "repro.store.stages",
               "try_load_placement_pair"),
    EntryPoint("store", "try_load_workload_stats", "repro.store.stages",
               "try_load_workload_stats"),
    EntryPoint("store", "try_load_measure", "repro.store.stages",
               "try_load_measure"),
    EntryPoint("sched", "plan_experiments", "repro.sched.jobs",
               "plan_experiments"),
    EntryPoint("sched", "probe_graph", "repro.sched.jobs", "probe_graph"),
    EntryPoint("sched", "assemble_experiment", "repro.sched.jobs",
               "assemble_experiment"),
)

_LAYER_OF = {entry.name: entry.layer for entry in ENTRY_POINTS}

_STAGE_LOADS = tuple(
    entry.name for entry in ENTRY_POINTS if entry.name.startswith("try_load_")
)


def _bindings(value, home) -> list[tuple[object, str]]:
    """Attributes bound to ``value`` in ``home`` and every ``repro`` module."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (
            module is home or name == "repro" or name.startswith("repro.")
        ):
            continue
        for attr, bound in list(vars(module).items()):
            if bound is value:
                found.append((module, attr))
    return found


def patch(module_name: str, qualname: str, make_wrapper: Callable) -> Callable:
    """Replace ``module_name:qualname`` everywhere it is bound.

    ``make_wrapper(original)`` builds the replacement.  Returns a
    zero-argument function that restores every binding it changed,
    including bindings made to the wrapper after patching.
    """
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        setattr(owner, attr, wrapper)

        def restore() -> None:
            setattr(owner, attr, original)

        return restore
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for target, name in _bindings(original, module):
        setattr(target, name, wrapper)

    def restore() -> None:
        for target, name in _bindings(wrapper, module):
            setattr(target, name, original)

    return restore


class Tracer:
    """Records spans of the wrapped entry points while installed.

    ``clock`` is injectable so tests can drive the arithmetic with
    synthetic times.
    """

    def __init__(self, entry_points=ENTRY_POINTS, clock=time.perf_counter):
        self.entry_points = tuple(entry_points)
        self.clock = clock
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._restores: list[Callable] = []

    def _make_wrapper(self, entry: EntryPoint, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(entry.name, tracer.clock(), 0.0, parent, tracer.pass_id)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            span.events, span.flag = entry.volume(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point (no-op when already installed)."""
        if self._restores:
            return
        for entry in self.entry_points:
            self._restores.append(
                patch(
                    entry.module,
                    entry.qualname,
                    functools.partial(self._make_wrapper, entry),
                )
            )

    def uninstall(self) -> None:
        """Put every original callable back, in reverse patch order."""
        while self._restores:
            self._restores.pop()()

    def start_pass(self, pass_id: int) -> list[Span]:
        """Begin recording a new pass; returns the previous pass's spans."""
        previous = self.spans
        self.spans = []
        self._stack = []
        self.pass_id = pass_id
        return previous


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` holds the spans of one pass in creation order, and each
    ``parent`` indexes into that same list.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, covered)]


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans: list[Span], wall: float, extras: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``spans`` holds the pass's spans with parents indexing into the same
    list; ``extras`` carries what the workload measured itself after the
    pass (``bytes_written`` and the scheduler's plan summary counts).
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    events: dict[str, int] = {}
    flagged: dict[str, int] = {}
    flagged_events: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for span, own in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        events[span.name] = events.get(span.name, 0) + span.events
        if span.flag:
            flagged[span.name] = flagged.get(span.name, 0) + 1
            flagged_events[span.name] = (
                flagged_events.get(span.name, 0) + span.events
            )
        durations.setdefault(span.name, []).append(span.duration)

    def c(*names):
        return sum(calls.get(name, 0) for name in names)

    def s(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def e(*names):
        return sum(events.get(name, 0) for name in names)

    trace_s = s("record_trace", "collect_stats")
    profile_s = s("profile_workload")
    windows = ("window_profile", "build_entity_map", "window_trg",
               "window_push", "apply_edge_deltas")
    cache_s = s("measure_trace", "consume")
    window_ms = [d * 1000.0 for d in durations.get("window_trg", [])]
    residual = wall - sum(selfs)
    return {
        "trace.calls": c("record_trace", "collect_stats"),
        "trace.self_s": trace_s,
        "trace.events": e("record_trace"),
        "trace.events_per_s": _ratio(e("record_trace"), s("record_trace")),
        "profiling.calls": c("profile_workload"),
        "profiling.self_s": profile_s,
        "profiling.events_per_s": _ratio(e("profile_workload"), profile_s),
        "profiling.window_calls": c(*windows),
        "profiling.window_self_s": s(*windows),
        "profiling.window_ms_p50": _percentile(window_ms, 0.5),
        "profiling.window_ms_p90": _percentile(window_ms, 0.9),
        "core.place_calls": c("place"),
        "core.place_self_s": s("place"),
        "core.delta_calls": c("delta_replace"),
        "core.delta_self_s": s("delta_replace"),
        "core.dirty_entities": e("delta_replace"),
        "cache.measure_calls": c("measure_trace"),
        "cache.self_s": cache_s,
        "cache.events": e("consume"),
        "cache.events_per_s": _ratio(e("consume"), cache_s),
        "cache.scalar_event_share": _ratio(
            flagged_events.get("consume", 0), e("consume")
        ),
        "store.get_calls": c("get"),
        "store.get_self_s": s("get"),
        "store.hit_ratio": _ratio(flagged.get("get", 0), c("get")),
        "store.put_calls": c("put"),
        "store.put_self_s": s("put"),
        "store.load_self_s": s(*_STAGE_LOADS),
        "store.trace_save_self_s": s("save_trace", "remember_and_save"),
        "store.trace_load_self_s": s("load_trace"),
        "store.bytes_written": extras.get("bytes_written", 0),
        "sched.plan_s": s("plan_experiments"),
        "sched.probe_s": s("probe_graph"),
        "sched.assemble_s": s("assemble_experiment"),
        "sched.executed": extras.get("sched_executed", 0),
        "sched.pruned": extras.get("sched_pruned", 0),
        "sched.deduped": extras.get("sched_deduped", 0),
        "bench.residual_s": residual,
        "bench.residual_share": _ratio(residual, wall),
    }


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to."""
    return _LAYER_OF[span_name]
