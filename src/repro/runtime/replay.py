"""The replay sink: simulate a trace under a placement policy.

Mirrors the paper's methodology (Section 4): "We then simulate the
programs to gather their data cache miss rates using this new placement by
mapping each old address given by ATOM to the new global, stack, or
custom-allocated heap address."  Here the trace carries (object, offset)
pairs directly, the resolver supplies each object's placed base address,
and the sum feeds the cache simulator and, optionally, the page tracker.
"""

from __future__ import annotations

from ..analysis.paging import PageTracker
from ..cache.simulator import CacheSimulator
from ..trace.events import ObjectInfo, TraceError
from ..trace.sinks import TraceSink
from .resolvers import AddressResolver


class ReplaySink(TraceSink):
    """Drive a cache simulation from a trace under a placement policy."""

    def __init__(
        self,
        resolver: AddressResolver,
        cache: CacheSimulator,
        pages: PageTracker | None = None,
    ):
        self.resolver = resolver
        self.cache = cache
        self.pages = pages

    def on_object(self, info: ObjectInfo) -> None:
        self.resolver.on_object(info)

    def on_alloc(self, info: ObjectInfo, return_addresses: tuple[int, ...]) -> None:
        self.resolver.on_alloc(info, return_addresses)

    def on_free(self, obj_id: int) -> None:
        self.resolver.on_free(obj_id)

    def on_access(self, obj_id, offset, size, is_store, category) -> None:
        try:
            addr = self.resolver.base_of[obj_id] + offset
        except KeyError:
            raise TraceError(
                f"corrupt trace: access to unknown object id {obj_id} "
                "(never declared or allocated)"
            ) from None
        if offset < 0:
            raise TraceError(
                f"corrupt trace: negative offset {offset} into object id {obj_id}"
            )
        self.cache.access(addr, size, obj_id, category, is_store)
        if self.pages is not None:
            self.pages.touch(addr, size)
