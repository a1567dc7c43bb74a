"""Two-level cache hierarchy simulation.

The paper's introduction situates CCDP among latency-reduction
techniques including multi-level caches; its placement targets the L1
data cache.  This module answers the natural follow-on question — does
an L1-targeted placement also help (or hurt) at L2? — by simulating an
inclusive-of-traffic two-level hierarchy: every reference that misses L1
becomes an L2 access, each level keeping independent statistics.  Each
level is a :class:`~repro.cache.batch.BatchCacheSimulator` fed chunk by
chunk; L2 consumes the references of each chunk that missed L1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import BatchCacheSimulator
from .config import CacheConfig
from .simulator import CacheStats

#: A typical late-90s off-chip L2 to pair with the paper's 8 KB L1.
DEFAULT_L2 = CacheConfig(size=262144, line_size=32, associativity=1)


@dataclass
class HierarchyStats:
    """Per-level statistics plus derived hierarchy metrics."""

    l1: CacheStats
    l2: CacheStats

    @property
    def l1_miss_rate(self) -> float:
        """L1 misses per L1 access, percent."""
        return self.l1.miss_rate

    @property
    def l2_local_miss_rate(self) -> float:
        """L2 misses per L2 access (the local miss rate), percent."""
        return self.l2.miss_rate

    @property
    def global_l2_miss_rate(self) -> float:
        """L2 misses per *L1* access — traffic that reaches memory."""
        if not self.l1.accesses:
            return 0.0
        return 100.0 * self.l2.misses / self.l1.accesses

    @property
    def memory_traffic_blocks(self) -> int:
        """Blocks crossing the L2/memory boundary: L2 fills + writebacks."""
        return self.l2.memory_traffic_blocks

    def average_access_time(
        self, l1_time: float = 1.0, l2_time: float = 10.0, memory_time: float = 60.0
    ) -> float:
        """Simple AMAT model over the simulated run, in cycles."""
        if not self.l1.accesses:
            return 0.0
        l1_miss = self.l1.misses / self.l1.accesses
        l2_miss = self.l2.misses / self.l2.accesses if self.l2.accesses else 0.0
        return l1_time + l1_miss * (l2_time + l2_miss * memory_time)


class TwoLevelCache:
    """An L1/L2 pair with the references that miss L1 forwarded to L2."""

    def __init__(
        self,
        l1_config: CacheConfig | None = None,
        l2_config: CacheConfig | None = None,
    ):
        self.l1 = BatchCacheSimulator(l1_config or CacheConfig())
        self.l2 = BatchCacheSimulator(l2_config or DEFAULT_L2)

    def consume_misses(
        self,
        addr: np.ndarray,
        size: np.ndarray,
        obj_id: np.ndarray,
        category: np.ndarray,
        is_store: np.ndarray,
    ) -> np.ndarray:
        """Simulate one chunk; returns which references missed L1."""
        missed = self.l1.consume_misses(addr, size, obj_id, category, is_store)
        self.l2.consume(
            addr[missed],
            size[missed],
            obj_id[missed],
            category[missed],
            is_store[missed],
        )
        return missed

    def replay(self, trace, resolver, max_events: int | None = None) -> int:
        """Simulate a recorded trace's accesses under ``resolver``'s placement.

        Replays the first ``max_events`` accesses (default: all) and
        returns how many it replayed.  Raises
        :class:`~repro.trace.events.TraceError` as
        :meth:`~repro.trace.buffer.TraceRecorder.iter_resolved` does.
        """
        from ..trace.buffer import DEFAULT_CHUNK_EVENTS

        obj, _offset, size, cat, store = trace.columns()
        stop = trace.events if max_events is None else min(max_events, trace.events)
        replayed = 0
        for start, end, addresses in trace.iter_resolved(
            resolver, DEFAULT_CHUNK_EVENTS
        ):
            end = min(end, stop)
            self.consume_misses(
                addresses[: end - start],
                size[start:end],
                obj[start:end],
                cat[start:end],
                store[start:end],
            )
            replayed = end
            if replayed >= stop:
                break
        return replayed

    @property
    def stats(self) -> HierarchyStats:
        """Current per-level statistics."""
        return HierarchyStats(l1=self.l1.stats, l2=self.l2.stats)


#: Default latency parameters of :meth:`HierarchyStats.average_access_time`,
#: shared by the two-level cost model's calibration pass.
L1_TIME = 1.0
L2_TIME = 10.0
MEMORY_TIME = 60.0

#: Trace-prefix length of one calibration replay.  The per-entity L2
#: behaviour of these synthetic workloads is stationary, so a bounded
#: replay prices the entities without paying for the full trace.  The
#: two-level placements depend on this length.
CALIBRATION_EVENTS = 200_000


def entity_l2_penalties(
    trace,
    l1_config: CacheConfig | None = None,
    l2_config: CacheConfig | None = None,
    l2_time: float = L2_TIME,
    memory_time: float = MEMORY_TIME,
    max_events: int = CALIBRATION_EVENTS,
) -> dict[int, int]:
    """Per-entity conflict-miss penalties from a two-level replay.

    Replays (a prefix of) the trace under the *natural* placement
    through a :class:`TwoLevelCache`, then prices each placement
    entity's L1 conflict miss from its measured L2 behaviour::

        penalty(e) = round(l2_time + l2_miss_fraction(e) * memory_time)

    An entity whose lines survive in L2 pays roughly the L2 hit
    latency per conflict; one whose lines die in L2 pays the memory
    latency too.  Entities that never reached L2 during calibration
    default to the optimistic L2-hit penalty.  The integer penalties
    feed :class:`~repro.core.cost_model.ConflictCostModel.\
entity_penalties`, keeping the gated scans exact.
    """
    from ..profiling.batch import trace_entity_map
    from ..runtime.resolvers import NaturalResolver

    hierarchy = TwoLevelCache(l1_config, l2_config)
    replayed = hierarchy.replay(trace, NaturalResolver(), max_events)

    base = max(1, round(l2_time))
    if not replayed:
        return {}
    eid_map = trace_entity_map(trace)
    l2 = hierarchy.l2.stats
    accesses: dict[int, int] = {}
    misses: dict[int, int] = {}
    for obj_id, count in l2.accesses_by_object.items():
        eid = int(eid_map[obj_id]) if obj_id < eid_map.size else obj_id
        accesses[eid] = accesses.get(eid, 0) + count
    for obj_id, count in l2.misses_by_object.items():
        eid = int(eid_map[obj_id]) if obj_id < eid_map.size else obj_id
        misses[eid] = misses.get(eid, 0) + count
    penalties: dict[int, int] = {}
    for eid, acc in accesses.items():
        fraction = misses.get(eid, 0) / acc if acc else 0.0
        penalties[eid] = max(base, round(l2_time + fraction * memory_time))
    # Entities that never reached L2 still pay at least the L2 access
    # latency on an L1 conflict miss — price them at the optimistic base
    # so relative weights stay meaningful.
    for eid in set(int(e) for e in eid_map):
        penalties.setdefault(eid, base)
    return penalties
