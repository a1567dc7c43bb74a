"""Entity naming: the lifetime half of the paper's profiling stage.

The profiling stage (Section 3) yields (1) the *Name* profile — for
every placement entity its name, reference count, size, and lifetime —
and (2) the *TRGplace* graph of temporal relationships between
(entity, chunk) pairs.  :class:`EntityNamer` does the naming: it turns
the declarations, allocations and frees of one run into placement
entities, running heap allocations through the XOR naming scheme so
that same-named allocations merge into one entity and
concurrent-liveness collisions are detected.  It sees no accesses:
:func:`~repro.profiling.batch.replay_entities` drives it over a
recorded trace's lifetime ops, and the batched kernels count the
references and build the TRG from the access columns.
"""

from __future__ import annotations

from ..cache.config import CacheConfig
from ..naming.xor import DEFAULT_NAME_DEPTH, NameUniverse
from ..trace.events import Category, ObjectInfo, STACK_OBJECT_ID
from ..trace.sinks import TraceSink
from .profile_data import Entity, Profile, STACK_ENTITY_ID
from .trg import DEFAULT_CHUNK_SIZE, QUEUE_THRESHOLD_CACHE_MULTIPLE


class EntityNamer(TraceSink):
    """Name a run's objects as placement entities, lifetime hooks only.

    Args:
        cache_config: Target cache; sets the default queue threshold to
            twice the cache size (paper, Section 3.2).
        chunk_size: TRG placement granularity (paper: 256 bytes).
        name_depth: XOR fold depth for heap names (paper: 4).
        queue_threshold: Override for the recency-queue byte bound.

    Raises:
        ValueError: A non-positive queue threshold or chunk size.
    """

    def __init__(
        self,
        cache_config: CacheConfig | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        name_depth: int = DEFAULT_NAME_DEPTH,
        queue_threshold: int | None = None,
    ):
        config = cache_config or CacheConfig()
        if queue_threshold is None:
            queue_threshold = QUEUE_THRESHOLD_CACHE_MULTIPLE * config.size
        if queue_threshold <= 0:
            raise ValueError(f"queue threshold must be positive: {queue_threshold}")
        if chunk_size <= 0:
            raise ValueError(f"chunk size must be positive: {chunk_size}")
        self.chunk_size = chunk_size
        self.names = NameUniverse(depth=name_depth)
        self._profile = Profile(
            chunk_size=chunk_size,
            queue_threshold=queue_threshold,
            name_depth=name_depth,
        )
        self._entity_of_object: dict[int, int] = {}
        self._entity_by_key: dict[str, int] = {}
        self._next_eid = STACK_ENTITY_ID + 1
        self._prev_alloc_name: int | None = None
        stack = Entity(
            eid=STACK_ENTITY_ID, category=Category.STACK, key="stack", size=0
        )
        self._profile.entities[STACK_ENTITY_ID] = stack
        self._entity_of_object[STACK_OBJECT_ID] = STACK_ENTITY_ID
        self._entity_by_key["stack"] = STACK_ENTITY_ID

    # -- sink hooks ---------------------------------------------------------

    def on_object(self, info: ObjectInfo) -> None:
        prefix = "g" if info.category is Category.GLOBAL else "c"
        key = f"{prefix}:{info.symbol}"
        entity = Entity(
            eid=self._next_eid,
            category=info.category,
            key=key,
            size=info.size,
            decl_index=info.decl_index,
        )
        self._next_eid += 1
        self._profile.entities[entity.eid] = entity
        self._entity_by_key[key] = entity.eid
        self._entity_of_object[info.obj_id] = entity.eid

    def on_alloc(self, info: ObjectInfo, return_addresses: tuple[int, ...]) -> None:
        name = self.names.observe_alloc(info.obj_id, info.size, return_addresses)
        key = f"h:{name:x}"
        eid = self._entity_by_key.get(key)
        if eid is None:
            entity = Entity(
                eid=self._next_eid,
                category=Category.HEAP,
                key=key,
                size=info.size,
                decl_index=info.decl_index,
                heap_name=name,
            )
            self._next_eid += 1
            self._profile.entities[entity.eid] = entity
            self._entity_by_key[key] = entity.eid
            eid = entity.eid
        entity = self._profile.entities[eid]
        entity.alloc_count += 1
        entity.size = max(entity.size, info.size)
        entity.collided = self.names.records[name].collided
        self._entity_of_object[info.obj_id] = eid
        if self._prev_alloc_name is not None and self._prev_alloc_name != name:
            a, b = sorted((self._prev_alloc_name, name))
            adjacency = self._profile.alloc_adjacency
            adjacency[(a, b)] = adjacency.get((a, b), 0) + 1
        self._prev_alloc_name = name

    def on_free(self, obj_id: int) -> None:
        self.names.observe_free(obj_id)
        # A later collision can only be observed at alloc time, but the
        # collided flag on the entity must reflect the whole run; refresh
        # it here as well so interleaved alloc/free patterns are caught.
        eid = self._entity_of_object.get(obj_id)
        if eid is not None:
            entity = self._profile.entities[eid]
            if entity.heap_name is not None:
                entity.collided = self.names.records[entity.heap_name].collided

    def on_stack_depth(self, depth: int) -> None:
        stack = self._profile.entities[STACK_ENTITY_ID]
        stack.size = max(stack.size, depth)

    # -- result ---------------------------------------------------------------

    @property
    def profile(self) -> Profile:
        """The profile holding the named entities (no access counters)."""
        return self._profile
