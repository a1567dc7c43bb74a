"""The streaming adaptive CCDP engine.

One pass over a recorded trace in fixed-size event windows:

1. **Train** — the first window is profiled exactly
   (:func:`~repro.adaptive.windows.window_profile`) and handed to the
   static :class:`~repro.core.algorithm.CCDPPlacer`; measurement starts
   under that placement, so with drift detection disabled the whole run
   is bit-identical to the static pipeline.
2. **Measure** — each window's addresses are resolved under the *live*
   placement and streamed through one carried
   :class:`~repro.cache.batch.BatchCacheSimulator`; placement switches
   happen atomically at window boundaries (objects relocate between
   windows, never mid-window).
3. **Watch** — each window's TRG enters a sliding
   :class:`~repro.adaptive.windows.WindowAggregator`, whose add/retire
   deltas update the incremental
   :class:`~repro.core.cache_struct.TRGIndex` in place.  Every
   ``cadence`` windows the drift score — window conflict cost of the
   live placement per unit of window TRG weight
   (:meth:`~repro.core.placement_engine.ArrayPlacementEngine.total_conflict_cost`)
   — is compared against the score captured right after the last
   (re-)placement.
4. **Re-place** — on drift, the delta path
   (:func:`~repro.adaptive.replace.delta_replace`) refits only the
   conflicted entities and re-derives the placement map; the next
   window measures under the new addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cache.batch import BatchCacheSimulator
from ..cache.config import CacheConfig
from ..cache.simulator import CacheStats
from ..core.algorithm import CCDPPlacer
from ..core.cache_struct import TRGIndex
from ..core.placement_engine import ArrayPlacementEngine
from ..core.placement_map import PlacementMap
from ..naming.xor import DEFAULT_NAME_DEPTH
from ..obs import telemetry as obs
from ..profiling.trg import (
    DEFAULT_CHUNK_SIZE,
    QUEUE_THRESHOLD_CACHE_MULTIPLE,
)
from ..runtime.resolvers import CCDPResolver
from ..store import current_store
from ..store.keys import config_fields, trace_fingerprint
from ..trace.buffer import TraceRecorder
from .replace import delta_replace
from .windows import WindowAggregator, build_entity_map, window_profile, window_trg

#: Default events per window.
DEFAULT_WINDOW_EVENTS = 8192
#: Default sliding-window depth, in windows.
DEFAULT_HISTORY = 4
#: Default drift trigger: score must exceed the post-placement
#: reference by this factor.
DEFAULT_DRIFT_THRESHOLD = 1.5
#: Absolute score floor below which drift never triggers (noise guard).
DEFAULT_MIN_DRIFT_SCORE = 0.05

#: Store kind for per-run window artifacts.
KIND_ADAPT_WINDOWS = "adapt-windows"

#: Events per simulator chunk inside a window.
_MEASURE_CHUNK = 1 << 16

_POLICIES = ("drift", "never", "always")


@dataclass
class WindowRecord:
    """Telemetry for one measured window."""

    index: int
    start: int
    end: int
    accesses: int
    misses: int
    drift_score: float | None = None
    replaced: bool = False

    @property
    def miss_rate(self) -> float:
        """Window miss rate in percent."""
        return 100.0 * self.misses / self.accesses if self.accesses else 0.0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "accesses": self.accesses,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "drift_score": self.drift_score,
            "replaced": self.replaced,
        }


@dataclass
class AdaptiveResult:
    """Outcome of one adaptive run."""

    stats: CacheStats
    windows: list[WindowRecord]
    replacements: int
    initial_placement: PlacementMap
    final_placement: PlacementMap
    window_events: int
    cadence: int
    history: int
    policy: str
    drift_threshold: float
    dirty_refits: int = 0
    index_inplace_updates: int = 0
    index_rebuilds: int = 0
    placements: list[PlacementMap] = field(default_factory=list)

    @property
    def miss_rate(self) -> float:
        """Overall miss rate in percent."""
        return self.stats.miss_rate

    def window_artifact(self) -> dict:
        """JSON payload persisted as the store's window artifact."""
        return {
            "window_events": self.window_events,
            "cadence": self.cadence,
            "history": self.history,
            "policy": self.policy,
            "drift_threshold": self.drift_threshold,
            "replacements": self.replacements,
            "dirty_refits": self.dirty_refits,
            "index_inplace_updates": self.index_inplace_updates,
            "index_rebuilds": self.index_rebuilds,
            "accesses": self.stats.accesses,
            "misses": self.stats.misses,
            "miss_rate": self.stats.miss_rate,
            "windows": [record.to_dict() for record in self.windows],
        }


def _drift_score(
    index: TRGIndex,
    config: CacheConfig,
    chunk_size: int,
    entity_base: np.ndarray,
    entity_size: np.ndarray,
) -> float:
    """Window conflict cost of the live placement per unit edge weight."""
    total = index.total_weight()
    if total <= 0:
        return 0.0
    engine = ArrayPlacementEngine(index, config, chunk_size)
    engine.fix_placed(entity_base, entity_size)
    return engine.total_conflict_cost() / total


def run_adaptive(
    trace: TraceRecorder,
    cache_config: CacheConfig | None = None,
    *,
    place_heap: bool = True,
    window_events: int = DEFAULT_WINDOW_EVENTS,
    cadence: int = 1,
    history: int = DEFAULT_HISTORY,
    drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
    min_drift_score: float = DEFAULT_MIN_DRIFT_SCORE,
    policy: str = "drift",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_depth: int = DEFAULT_NAME_DEPTH,
    queue_threshold: int | None = None,
) -> AdaptiveResult:
    """Stream a recorded trace through the adaptive CCDP engine.

    Args:
        trace: A complete recorded trace.
        cache_config: Target cache geometry (paper default when omitted).
        place_heap: Forwarded to the placer and the delta path.
        window_events: Events per window — also the training prefix.
        cadence: Check drift every this many windows.
        history: Sliding-window depth, in windows.
        drift_threshold: Trigger factor over the post-placement
            reference score.
        min_drift_score: Absolute score floor for triggering.
        policy: ``drift`` (detect and re-place), ``never`` (static
            placement throughout — the parity arm), or ``always``
            (re-place at every check — the oracle arm).
        chunk_size, name_depth, queue_threshold: Profiling knobs.

    Returns:
        The carried cache statistics plus per-window telemetry.

    Raises:
        TraceError: The recording is truncated, or an access touches an
            object outside its lifetime (never declared, not yet
            allocated, or already freed) or at a negative offset.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {_POLICIES}")
    config = cache_config or CacheConfig()
    window_events = max(1, int(window_events))
    cadence = max(1, int(cadence))
    threshold = (
        queue_threshold
        if queue_threshold is not None
        else QUEUE_THRESHOLD_CACHE_MULTIPLE * config.size
    )
    total = trace.events

    with obs.span(
        "adapt.run",
        events=total,
        window_events=window_events,
        cadence=cadence,
        policy=policy,
    ):
        with obs.span("adapt.train"):
            train_profile = window_profile(
                trace,
                window_events,
                config,
                chunk_size=chunk_size,
                name_depth=name_depth,
                queue_threshold=queue_threshold,
            )
            placement = CCDPPlacer(
                train_profile, config, place_heap=place_heap
            ).place()
        initial_placement = placement

        profile, eid_map, entry_bytes = build_entity_map(
            trace, chunk_size=chunk_size, name_depth=name_depth
        )
        entity_base = np.full(max(profile.entities) + 1, -1, dtype=np.int64)
        entity_size = np.ones(len(entity_base), dtype=np.int64)
        for eid, entity in profile.entities.items():
            entity_size[eid] = max(entity.size, 1)

        index = TRGIndex.from_edges({}, list(profile.entities))
        aggregator = WindowAggregator(history)
        simulator = BatchCacheSimulator(config)
        obj, offset_col, size_col, cat_col, store_col = trace.columns()
        resolved = trace.resolve_bases(CCDPResolver(placement))

        windows: list[WindowRecord] = []
        placements = [placement]
        replacements = 0
        dirty_refits = 0
        ref_score: float | None = None
        prev_accesses = prev_misses = 0
        num_windows = -(-total // window_events) if total else 0

        for w in range(num_windows):
            start = w * window_events
            end = min(total, start + window_events)
            with obs.span("adapt.window", index=w, events=end - start):
                obj_w = np.asarray(obj[start:end])
                offset_w = np.asarray(offset_col[start:end])
                resolved.check(start, obj_w, offset_w)
                eids_w = eid_map[obj_w]
                entity_base[eids_w] = resolved.bases[obj_w]
                edges = window_trg(
                    eids_w, offset_w // chunk_size, entry_bytes, threshold
                )
                index.apply_edge_deltas(aggregator.push(edges))

                for chunk_start in range(start, end, _MEASURE_CHUNK):
                    chunk_end = min(end, chunk_start + _MEASURE_CHUNK)
                    obj_chunk = np.asarray(obj[chunk_start:chunk_end])
                    simulator.consume(
                        resolved.bases[obj_chunk]
                        + np.asarray(offset_col[chunk_start:chunk_end]),
                        size_col[chunk_start:chunk_end],
                        obj_chunk,
                        cat_col[chunk_start:chunk_end],
                        store_col[chunk_start:chunk_end],
                    )
                accesses, misses = simulator.accesses, simulator.misses
                record = WindowRecord(
                    index=w,
                    start=start,
                    end=end,
                    accesses=accesses - prev_accesses,
                    misses=misses - prev_misses,
                )
                prev_accesses, prev_misses = accesses, misses
                trace.advise_done(start, end)
            obs.count("adapt.windows")

            if w >= 1 and (w + 1) % cadence == 0 and policy != "never":
                score = _drift_score(
                    index, config, chunk_size, entity_base, entity_size
                )
                record.drift_score = score
                obs.gauge("adapt.drift_score", score)
                if policy == "always":
                    trigger = True
                elif ref_score is None:
                    ref_score = score
                    trigger = False
                else:
                    trigger = score > max(
                        ref_score * drift_threshold, min_drift_score
                    )
                if trigger:
                    with obs.span("adapt.replace", window=w):
                        step = delta_replace(
                            profile,
                            index,
                            config,
                            chunk_size,
                            entity_base,
                            entity_size,
                            placement,
                            place_heap,
                        )
                    placement = step.placement
                    placements.append(placement)
                    replacements += 1
                    dirty_refits += step.dirty_entities
                    obs.count("adapt.replacements")
                    resolved = trace.resolve_bases(CCDPResolver(placement))
                    ref_score = None
                    record.replaced = True
            windows.append(record)

        result = AdaptiveResult(
            stats=simulator.stats,
            windows=windows,
            replacements=replacements,
            initial_placement=initial_placement,
            final_placement=placement,
            window_events=window_events,
            cadence=cadence,
            history=history,
            policy=policy,
            drift_threshold=drift_threshold,
            dirty_refits=dirty_refits,
            index_inplace_updates=index.inplace_updates,
            index_rebuilds=index.rebuilds,
            placements=placements,
        )

    artifact_store = current_store()
    if artifact_store is not None:
        fields = {
            "trace": trace_fingerprint(trace),
            "cache": config_fields(config),
            "window_events": window_events,
            "cadence": cadence,
            "history": history,
            "policy": policy,
            "drift_threshold": drift_threshold,
            "min_drift_score": min_drift_score,
            "place_heap": place_heap,
        }
        artifact_store.get_or_compute(
            KIND_ADAPT_WINDOWS,
            fields,
            encode=lambda value: value,
            decode=lambda payload: payload,
            compute=result.window_artifact,
        )
    return result
