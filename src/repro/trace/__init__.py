"""Object-level trace substrate: events, sinks, and workload statistics."""

from .events import (
    Access,
    Alloc,
    Category,
    CATEGORY_ORDER,
    Free,
    ObjectInfo,
    STACK_OBJECT_ID,
    TraceError,
)
from .buffer import (
    DEFAULT_CHUNK_EVENTS,
    TraceRecorder,
    record_trace,
)
from .sinks import MultiSink, RecordingSink, TraceSink
from .validate import ValidatingSink, Violation
from .stats import (
    SIZE_BUCKET_BOUNDS,
    SIZE_BUCKET_LABELS,
    SizeBucketRow,
    StatsSink,
    WorkloadStats,
    size_breakdown,
    size_bucket,
)

__all__ = [
    "Access",
    "Alloc",
    "Category",
    "CATEGORY_ORDER",
    "DEFAULT_CHUNK_EVENTS",
    "Free",
    "MultiSink",
    "ObjectInfo",
    "record_trace",
    "RecordingSink",
    "size_breakdown",
    "size_bucket",
    "SIZE_BUCKET_BOUNDS",
    "SIZE_BUCKET_LABELS",
    "SizeBucketRow",
    "STACK_OBJECT_ID",
    "StatsSink",
    "TraceError",
    "TraceRecorder",
    "TraceSink",
    "ValidatingSink",
    "Violation",
    "WorkloadStats",
]
