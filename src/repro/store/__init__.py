"""Content-addressed artifact store for incremental pipeline execution.

Profile-guided layout systems treat profiles as reusable artifacts
across layout experiments; CCDP's pipeline stages — Name profile + TRG,
placement map, per-placement miss statistics — are pure functions of
their inputs, so each stage output is persisted (a JSON document plus
typed array blocks) under a digest of its inputs (trace fingerprint,
cache geometry, placer/profiler parameters, code-version salt) and
reused on every later run.  A warm ``repro tables`` rerun reassembles
its tables from the store without executing a single workload.

The store is *consultative*: library code asks :func:`current_store` and
proceeds uncached when none is installed, so nothing changes for callers
that never opt in.  Corrupt, truncated, or stale entries degrade to a
recompute-and-rewrite, never an error.
"""

from .keys import (
    canonical_json,
    code_salt,
    config_fields,
    digest_json,
    store_key,
    trace_fingerprint,
)
from .store import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    ArtifactStore,
    ProbeTally,
    StoreCounters,
    StoreEntryError,
    StoreStats,
    current_store,
    resolve_cache_dir,
    set_store,
    use_store,
)
from .traces import (
    KIND_TRACE,
    load_trace,
    load_trace_by_fingerprint,
    remember_and_save,
    save_trace,
    trace_data_path,
)

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "ArtifactStore",
    "KIND_TRACE",
    "ProbeTally",
    "StoreCounters",
    "StoreEntryError",
    "StoreStats",
    "load_trace",
    "load_trace_by_fingerprint",
    "remember_and_save",
    "save_trace",
    "trace_data_path",
    "canonical_json",
    "code_salt",
    "config_fields",
    "current_store",
    "digest_json",
    "resolve_cache_dir",
    "set_store",
    "store_key",
    "trace_fingerprint",
    "use_store",
]
