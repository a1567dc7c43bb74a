"""Temporal Relationship Graph construction (paper, Section 3.2).

The TRG is built during profiling with a bounded recency queue ``Q`` of the
most recently accessed data.  When a chunk is referenced and found in
``Q``, the edge weight between it and every chunk *in front of it* in the
queue is incremented — each such intervening reference is one predicted
cache miss were the two mapped to the same (direct-mapped) cache line.
The referenced chunk then moves to the front.  The total byte size of
queued chunks is bounded by the *queue-threshold* (the paper uses twice
the cache size: older entries would likely have been displaced by
capacity anyway).

Granularity: relationships are kept between (entity, chunk) pairs, with a
chunk size of 256 bytes, because whole-object edges make large objects
impossible to place well (a lesson the paper carries over from procedure
placement).

The queue itself runs as array passes over a recorded trace's columns
(:func:`repro.profiling.batch.trg_edges`); this module holds the
parameters and key types the passes share, and the entity-level
collapse of their edges.
"""

from __future__ import annotations

#: Placement granularity in bytes (paper, Section 3.2).
DEFAULT_CHUNK_SIZE = 256

#: Queue-threshold multiplier over the cache size (paper, Section 3.2).
QUEUE_THRESHOLD_CACHE_MULTIPLE = 2

PairKey = tuple[int, int]
EdgeKey = tuple[PairKey, PairKey]


def entity_affinity(
    edges: dict[EdgeKey, int]
) -> dict[tuple[int, int], int]:
    """Collapse chunk-level TRGplace edges to entity-level weights.

    This is the Phase 4 derivation used when building TRGselect: for every
    TRGplace edge between (obj1, chunk1) and (obj2, chunk2) with weight W,
    accumulate W onto the entity pair (obj1, obj2).
    """
    totals: dict[tuple[int, int], int] = {}
    for ((eid_a, _ca), (eid_b, _cb)), weight in edges.items():
        if eid_a == eid_b:
            continue
        pair = (eid_a, eid_b) if eid_a <= eid_b else (eid_b, eid_a)
        totals[pair] = totals.get(pair, 0) + weight
    return totals
