"""Conflict debugging: who evicts whom, predicted and measured.

The TRG *predicts* conflict cost; the eviction matrix *measures* it.
This module ties the two together for one workload run:

* :func:`predicted_conflicts` ranks entity pairs by TRG affinity — the
  pairs the placement algorithm will try hardest to separate;
* :func:`replay_evictions` replays a recorded trace under a placement
  through a :class:`~repro.cache.batch.BatchCacheSimulator` with
  ``track_evictions=True``, and :func:`measured_conflicts` ranks its
  object pairs by observed evictions;
* :func:`conflict_report` renders both side by side, before and after
  placement — the tool a developer would reach for when asking "why is
  this placement not helping?".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.batch import BatchCacheSimulator
from ..profiling.profile_data import Profile
from ..reporting.tables import render_table
from ..trace.buffer import _OP_ALLOC, _OP_OBJECT, TraceRecorder
from ..trace.events import STACK_OBJECT_ID


@dataclass(frozen=True)
class ConflictPair:
    """One ranked conflicting pair."""

    first: str
    second: str
    weight: int


def predicted_conflicts(profile: Profile, top: int = 10) -> list[ConflictPair]:
    """Top entity pairs by TRG affinity (the placement's priorities)."""
    affinity = profile.entity_affinity()
    ranked = sorted(affinity.items(), key=lambda item: item[1], reverse=True)
    pairs = []
    for (eid_a, eid_b), weight in ranked[:top]:
        pairs.append(
            ConflictPair(
                first=profile.entities[eid_a].key,
                second=profile.entities[eid_b].key,
                weight=weight,
            )
        )
    return pairs


def replay_evictions(trace: TraceRecorder, resolver) -> BatchCacheSimulator:
    """Simulate a recorded trace under ``resolver``, tracking evictions."""
    cache = BatchCacheSimulator(track_evictions=True)
    obj, _offset, size, cat, store = trace.columns()
    for start, end, addr in trace.iter_resolved(resolver):
        cache.consume(
            addr, size[start:end], obj[start:end], cat[start:end], store[start:end]
        )
    return cache


def object_labels(trace: TraceRecorder) -> dict[int, str]:
    """Symbol of every object a recorded trace declares or allocates."""
    labels = {STACK_OBJECT_ID: "stack"}
    for _position, kind, payload in trace.lifetime_ops:
        if kind == _OP_OBJECT:
            labels[payload.obj_id] = payload.symbol
        elif kind == _OP_ALLOC:
            labels[payload[0].obj_id] = payload[0].symbol
    return labels


def measured_conflicts(
    cache: BatchCacheSimulator,
    labels: dict[int, str] | None = None,
    top: int = 10,
) -> list[ConflictPair]:
    """Top cross-object pairs by observed evictions (symmetrized).

    Self pairs (an object evicting its own lines) are dropped before
    ranking, so up to ``top`` cross-object pairs come back.

    Args:
        cache: A simulator run with ``track_evictions=True``.
        labels: Optional obj_id -> human-readable name mapping.
        top: Number of pairs to return.
    """
    symmetric: dict[tuple[int, int], int] = {}
    for (evictor, victim), count in cache.evictions.items():
        if evictor == victim:
            continue
        pair = (evictor, victim) if evictor < victim else (victim, evictor)
        symmetric[pair] = symmetric.get(pair, 0) + count

    def label(obj_id: int) -> str:
        if labels and obj_id in labels:
            return labels[obj_id]
        return f"obj#{obj_id}"

    ranked = sorted(symmetric.items(), key=lambda item: item[1], reverse=True)
    return [
        ConflictPair(first=label(a), second=label(b), weight=count)
        for (a, b), count in ranked[:top]
    ]


def render_conflicts(pairs: list[ConflictPair], title: str) -> str:
    """Render a ranked conflict list."""
    headers = ["First", "Second", "Weight"]
    body = [(p.first, p.second, p.weight) for p in pairs]
    return render_table(headers, body, title=title)


def conflict_report(
    profile: Profile,
    before: BatchCacheSimulator,
    after: BatchCacheSimulator,
    labels: dict[int, str] | None = None,
    top: int = 8,
) -> str:
    """Side-by-side predicted and measured conflict rankings.

    ``before`` and ``after`` are eviction-tracking simulators of the same
    trace under the original and CCDP placements respectively.
    """
    sections = [
        render_conflicts(
            predicted_conflicts(profile, top),
            "Predicted (TRG affinity, training run)",
        ),
        render_conflicts(
            measured_conflicts(before, labels, top),
            "Measured evictions — original placement",
        ),
        render_conflicts(
            measured_conflicts(after, labels, top),
            "Measured evictions — CCDP placement",
        ),
    ]
    return "\n\n".join(sections)


def total_cross_object_evictions(cache: BatchCacheSimulator) -> int:
    """Evictions where the evictor and victim are different objects.

    Self-evictions (an object displacing its own blocks) are intra-object
    misses placement cannot address — the mgrid case.
    """
    return sum(
        count
        for (evictor, victim), count in cache.evictions.items()
        if evictor != victim
    )
