"""Profiling: Name profile, placement entities, TRG, sampling, serialization."""

from .profile_data import Entity, Profile, STACK_ENTITY_ID
from .batch import profile_trace
from .profiler import EntityNamer
from .sampling import sampled_profile, sampling_ratio
from .serialize import (
    SerializationError,
    load_placement,
    load_profile,
    save_placement,
    save_profile,
)
from .trg import (
    DEFAULT_CHUNK_SIZE,
    QUEUE_THRESHOLD_CACHE_MULTIPLE,
    entity_affinity,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "Entity",
    "entity_affinity",
    "EntityNamer",
    "load_placement",
    "load_profile",
    "Profile",
    "profile_trace",
    "QUEUE_THRESHOLD_CACHE_MULTIPLE",
    "sampled_profile",
    "sampling_ratio",
    "save_placement",
    "save_profile",
    "SerializationError",
    "STACK_ENTITY_ID",
]
