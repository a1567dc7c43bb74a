"""Object-level trace substrate: events, recording, and workload statistics."""

from .events import (
    Category,
    CATEGORY_ORDER,
    ObjectInfo,
    STACK_OBJECT_ID,
    TraceError,
)
from .buffer import (
    DEFAULT_CHUNK_EVENTS,
    TraceRecorder,
    record_trace,
)
from .sinks import TraceSink
from .validate import ValidatingSink, Violation
from .stats import (
    SIZE_BUCKET_BOUNDS,
    SIZE_BUCKET_LABELS,
    SizeBucketRow,
    WorkloadStats,
    size_breakdown,
    size_bucket,
)

__all__ = [
    "Category",
    "CATEGORY_ORDER",
    "DEFAULT_CHUNK_EVENTS",
    "ObjectInfo",
    "record_trace",
    "size_breakdown",
    "size_bucket",
    "SIZE_BUCKET_BOUNDS",
    "SIZE_BUCKET_LABELS",
    "SizeBucketRow",
    "STACK_OBJECT_ID",
    "TraceError",
    "TraceRecorder",
    "TraceSink",
    "ValidatingSink",
    "Violation",
    "WorkloadStats",
]
