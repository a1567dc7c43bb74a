"""Time-sampled TRG profiling (paper, Section 5.2 future work).

Building the TRG on every reference is the expensive part of profiling;
the paper notes it is "looking at alternative techniques for gathering
this information such as time sampling".  This module implements that
variant: the Name profile still sees every access (counting is cheap),
but the recency queue / TRG machinery is engaged only during periodic
sampling windows.  Edge weights are scaled back up by the inverse
sampling ratio at the end of the run so downstream placement sees
magnitudes comparable to a full profile.
"""

from __future__ import annotations

from ..cache.config import CacheConfig
from ..naming.xor import DEFAULT_NAME_DEPTH
from .profile_data import Profile
from .profiler import ProfilerSink
from .trg import DEFAULT_CHUNK_SIZE

#: Default sampling pattern: observe 10k references out of every 50k.
DEFAULT_WINDOW = 10_000
DEFAULT_PERIOD = 50_000


class SamplingProfilerSink(ProfilerSink):
    """A profiler that builds the TRG from periodic sampling windows.

    Args:
        window: References observed (TRG active) per period.
        period: Total references per sampling period; must be >= window.
        Remaining arguments match :class:`ProfilerSink`.

    The effective profiling cost drops by roughly ``window / period``;
    the resulting TRG is an unbiased estimate for programs whose phase
    lengths exceed the period, which is what makes the technique
    attractive for long-running profiles.
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        period: int = DEFAULT_PERIOD,
        cache_config: CacheConfig | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        name_depth: int = DEFAULT_NAME_DEPTH,
        queue_threshold: int | None = None,
    ):
        if window <= 0 or period < window:
            raise ValueError(
                f"need 0 < window <= period, got window={window} period={period}"
            )
        super().__init__(
            cache_config=cache_config,
            chunk_size=chunk_size,
            name_depth=name_depth,
            queue_threshold=queue_threshold,
        )
        self.window = window
        self.period = period
        self._position = 0
        self.sampled_accesses = 0

    def on_access(self, obj_id, offset, size, is_store, category) -> None:
        position = self._position
        self._position = (position + 1) % self.period
        if position < self.window:
            self.sampled_accesses += 1
            super().on_access(obj_id, offset, size, is_store, category)
            return
        # Outside the window: keep the (cheap) Name profile exact, skip
        # the TRG queue entirely.
        if offset < 0:
            self._reject_offset(obj_id, offset)
        eid = self._entity_of_object[obj_id]
        entity = self._profile.entities[eid]
        self._clock += 1
        entity.note_access(self._clock)

    def on_end(self) -> None:
        super().on_end()
        self._scale_weights()

    def _scale_weights(self) -> None:
        """Scale edge weights by the inverse sampling ratio."""
        if self.sampled_accesses == 0 or self._clock == 0:
            return
        factor = self._clock / self.sampled_accesses
        if factor <= 1.0:
            return
        profile = self._profile
        profile.trg = {
            edge: max(1, round(weight * factor))
            for edge, weight in profile.trg.items()
        }

    @property
    def sampling_ratio(self) -> float:
        """Fraction of references that fed the TRG."""
        if self._clock == 0:
            return 0.0
        return self.sampled_accesses / self._clock


def sampled_profile(
    workload,
    input_name: str | None = None,
    window: int = DEFAULT_WINDOW,
    period: int = DEFAULT_PERIOD,
    cache_config: CacheConfig | None = None,
) -> Profile:
    """Convenience wrapper: profile one input with time sampling."""
    sink = SamplingProfilerSink(
        window=window, period=period, cache_config=cache_config
    )
    workload.run(sink, input_name or workload.train_input)
    return sink.profile
