"""Time-sampled TRG profiling (paper, Section 5.2 future work).

Building the TRG on every reference is the expensive part of profiling;
the paper notes it is "looking at alternative techniques for gathering
this information such as time sampling".  This module implements that
variant: the Name profile still sees every access (counting is cheap),
but the recency queue / TRG machinery is engaged only during periodic
sampling windows — reference ``i`` feeds it when ``i % period <
window``.  Edge weights are scaled back up by the inverse sampling
ratio so downstream placement sees magnitudes comparable to a full
profile.  The sampled references are picked from the recorded trace's
columns and run through the same :func:`~repro.profiling.batch.trg_edges`
pass as a full profile.
"""

from __future__ import annotations

import numpy as np

from ..cache.config import CacheConfig
from ..trace.buffer import TraceRecorder, record_trace
from .batch import count_profile, name_profile, trg_edges
from .profile_data import Profile

#: Default sampling pattern: observe 10k references out of every 50k.
DEFAULT_WINDOW = 10_000
DEFAULT_PERIOD = 50_000


def sampling_ratio(total: int, window: int, period: int) -> float:
    """Fraction of ``total`` references inside the sampling windows."""
    if not total:
        return 0.0
    periods, rest = divmod(total, period)
    return (periods * window + min(rest, window)) / total


def sampled_profile(
    workload,
    input_name: str | None = None,
    window: int = DEFAULT_WINDOW,
    period: int = DEFAULT_PERIOD,
    cache_config: CacheConfig | None = None,
    trace: TraceRecorder | None = None,
) -> Profile:
    """Profile one input, its TRG from ``window`` of every ``period`` references.

    Without a recorded ``trace`` of the (workload, input) run, the
    workload runs once to record one.  The effective TRG cost drops by
    roughly ``window / period``; the result is an unbiased estimate for
    programs whose phase lengths exceed the period.  Never served from
    the artifact store, whose profile key has no sampling fields.

    Raises:
        ValueError: Unless ``0 < window <= period``.
    """
    if window <= 0 or period < window:
        raise ValueError(
            f"need 0 < window <= period, got window={window} period={period}"
        )
    if trace is None:
        trace = record_trace(workload, input_name or workload.train_input)
    named = name_profile(trace, trace.events, cache_config)
    profile = named.profile
    total = profile.total_accesses
    sampled = np.arange(total) % period < window
    trg = trg_edges(
        named.eids[sampled],
        named.chunks[sampled],
        named.entry_bytes[sampled],
        profile.queue_threshold,
    )
    columns = trg.columns
    kept = int(np.count_nonzero(sampled))
    if kept and kept < total:
        factor = total / kept
        weight = np.maximum(1, np.rint(columns.weight * factor)).astype(np.int64)
        columns = columns._replace(weight=weight)
    profile.trg_columns = columns
    count_profile(profile, trg)
    return profile
