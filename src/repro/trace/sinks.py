"""The sink protocol: the consumer side of an object-level trace.

A *sink* receives the event stream of a workload run.  The product has
one sink on the access path, :class:`~repro.trace.buffer.TraceRecorder`,
which keeps the run as columns; every profile, statistic and placement
measurement is computed from those columns.  Other sinks observe the
lifetime events only (the entity namer, the resolvers) or check the
stream (:class:`~repro.trace.validate.ValidatingSink`); a recorded
trace replays into any of them.

The sink protocol is deliberately a set of plain methods rather than a
single ``handle(event)`` dispatcher.  The access path, the hot loop of
recording, goes one step further: :class:`~repro.vm.program.Program`
asks its sink once for an :meth:`TraceSink.access_writer` and hands it
each access as one ``(obj_id, offset, size, is_store, category)``
tuple.  The recorder's writer is its pending list's ``extend``, so a
recorded access runs no Python frame of the sink at all; any other
sink gets a wrapper that calls :meth:`TraceSink.on_access`.
"""

from __future__ import annotations

from typing import Callable

from .events import Category, ObjectInfo


class TraceSink:
    """Base sink; every hook is a no-op.

    Subclasses override the subset of hooks they care about.

    Hooks:
        * :meth:`on_object` — a static object (global/constant/stack) was
          declared before the run started.
        * :meth:`on_access` — a load or store executed; a run reaches
          it through :meth:`access_writer`.
        * :meth:`on_alloc` / :meth:`on_free` — heap lifetime events.
        * :meth:`on_compute` — ``n`` non-memory instructions executed
          (used only for instruction accounting, Table 1).
        * :meth:`on_stack_depth` — the maximum stack extent grew.
        * :meth:`on_end` — the run finished.
    """

    def on_object(self, info: ObjectInfo) -> None:
        """Register a statically declared object (global, constant, stack)."""

    def on_access(
        self,
        obj_id: int,
        offset: int,
        size: int,
        is_store: bool,
        category: Category,
    ) -> None:
        """Observe one load (``is_store=False``) or store (``is_store=True``)."""

    def access_writer(self) -> Callable[[tuple], None]:
        """The callable a run hands each access to.

        An access is one ``(obj_id, offset, size, is_store, category)``
        tuple; this writer unpacks it into :meth:`on_access`.  A writer
        must not refer to the run that calls it.
        """
        on_access = self.on_access

        def write(access: tuple) -> None:
            on_access(*access)

        return write

    def on_alloc(self, info: ObjectInfo, return_addresses: tuple[int, ...]) -> None:
        """Observe a heap allocation."""

    def on_free(self, obj_id: int) -> None:
        """Observe a heap deallocation."""

    def on_compute(self, instructions: int) -> None:
        """Observe ``instructions`` executed instructions that touch no memory."""

    def on_stack_depth(self, depth: int) -> None:
        """Observe that the stack object now extends to ``depth`` bytes."""

    def on_end(self) -> None:
        """The workload run is complete."""
