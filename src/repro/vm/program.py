"""The ``Program`` execution context that synthetic workloads run against.

A workload is Python code written against this API.  It declares globals
and constants up front, then executes: it calls functions (pushing
synthetic return addresses, which feed the XOR heap-naming scheme), opens
stack frames, loads and stores objects at byte offsets, and allocates and
frees heap objects.  Every action is forwarded to a
:class:`~repro.trace.sinks.TraceSink`, so the same deterministic workload
can drive the trace recorder or any other sink.

An access is the hot path of a run: each of :meth:`Program.load`,
:meth:`~Program.store`, :meth:`~Program.load_local` and
:meth:`~Program.store_local` validates inline and hands one
``(obj_id, offset, size, is_store, category)`` tuple to the writer its
sink returned from :meth:`~repro.trace.sinks.TraceSink.access_writer`,
so a recorded access costs one Python call and one ``list.extend``.

This plays the role ATOM played for the paper's authors: it turns a
program execution into an object-level reference trace.
"""

from __future__ import annotations

from ..memory.layout import WORD_SIZE
from ..trace.events import Category, ObjectInfo, STACK_OBJECT_ID, TraceError
from ..trace.sinks import TraceSink

_STACK = Category.STACK


def _reject(ref: "Ref", offset: int, size: int) -> None:
    """Raise the :class:`TraceError` for an invalid access to ``ref``."""
    if not ref.alive:
        raise TraceError(f"access to freed object {ref.obj_id}")
    if size < 1:
        raise TraceError(f"access of {size} bytes to object {ref.obj_id}")
    raise TraceError(
        f"access [{offset},{offset + size}) outside object "
        f"{ref.obj_id} of size {ref.size}"
    )


def _reject_local(frames: list[int], frame_offset: int, size: int) -> None:
    """Raise the :class:`TraceError` for an invalid stack access."""
    if not frames:
        raise TraceError("stack access with no open frame")
    if size < 1:
        raise TraceError(f"stack access of {size} bytes")
    raise TraceError(f"stack access at frame offset {frame_offset} exceeds frame")


class Ref:
    """Handle to a declared or allocated data object."""

    __slots__ = ("obj_id", "size", "category", "alive")

    def __init__(self, obj_id: int, size: int, category: Category):
        self.obj_id = obj_id
        self.size = size
        self.category = category
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ref(obj_id={self.obj_id}, size={self.size}, {self.category.name})"


class _ReturnAddresses(dict):
    """Call site -> mixed return address, mixed once per site."""

    __slots__ = ()

    def __missing__(self, site: int) -> int:
        address = self[site] = Program._mix(site)
        return address


class _Function:
    """The context manager :meth:`Program.function` returns: call + frame."""

    __slots__ = ("_program", "_address", "_frame_bytes")

    def __init__(self, program: "Program", site: int, frame_bytes: int):
        self._program = program
        self._address = program._addresses[site]
        self._frame_bytes = frame_bytes

    def __enter__(self) -> None:
        program = self._program
        program._return_stack.append(self._address)
        if self._frame_bytes:
            program.push_frame(self._frame_bytes)

    def __exit__(self, *exc_info) -> None:
        program = self._program
        if self._frame_bytes:
            program.pop_frame()
        program.ret()


class Program:
    """Execution context binding a workload run to a trace sink.

    Typical use::

        program = Program(sink)
        table = program.add_global("table", 4096)
        program.start()
        with program.function(site=0x1000, frame_bytes=64):
            program.load(table, 128)
            node = program.malloc(24)
            program.store(node, 0)
            program.free(node)
        program.finish()
    """

    def __init__(self, sink: TraceSink):
        self.sink = sink
        # Bound once: the sink's access writer must not refer back to
        # this Program, or every finished run would wait for a full
        # garbage collection to be freed.
        self._write = sink.access_writer()
        self._addresses = _ReturnAddresses()
        self._next_obj_id = STACK_OBJECT_ID + 1
        self._decl_index = 0
        self._started = False
        self._finished = False
        self._return_stack: list[int] = []
        self._frame_bases: list[int] = []
        self._sp = 0
        self._max_sp = 0
        self._static: list[ObjectInfo] = []

    # -- declaration -------------------------------------------------------

    def add_global(self, name: str, size: int) -> Ref:
        """Declare a global variable of ``size`` bytes."""
        return self._add_static(name, size, Category.GLOBAL)

    def add_constant(self, name: str, size: int) -> Ref:
        """Declare a constant object (lives in the text segment, never moved)."""
        return self._add_static(name, size, Category.CONST)

    def _add_static(self, name: str, size: int, category: Category) -> Ref:
        if self._started:
            raise TraceError("static objects must be declared before start()")
        if size <= 0:
            raise TraceError(f"object {name!r} must have positive size, got {size}")
        info = ObjectInfo(
            obj_id=self._next_obj_id,
            category=category,
            size=size,
            symbol=name,
            decl_index=self._decl_index,
        )
        self._next_obj_id += 1
        self._decl_index += 1
        self._static.append(info)
        return Ref(info.obj_id, size, category)

    # -- run control -------------------------------------------------------

    def start(self) -> None:
        """Publish static objects to the sink and begin the run."""
        if self._started:
            raise TraceError("start() called twice")
        self._started = True
        for info in self._static:
            self.sink.on_object(info)

    def finish(self) -> None:
        """End the run, flushing final stack-extent information."""
        if not self._started:
            raise TraceError("finish() before start()")
        if self._finished:
            raise TraceError("finish() called twice")
        self._finished = True
        self.sink.on_stack_depth(max(self._max_sp, WORD_SIZE))
        self.sink.on_end()

    # -- control flow ------------------------------------------------------

    @staticmethod
    def _mix(site: int) -> int:
        """Spread a synthetic site id over 32 bits (splitmix-style).

        Workloads use small, patterned integers as call-site ids.  Raw
        XOR-folding of such patterned values is degenerate (structured
        bits cancel), which real return addresses do not exhibit; mixing
        restores realistic avalanche while staying deterministic across
        runs — the property the naming scheme depends on.
        """
        value = (site * 0x9E3779B9) & 0xFFFFFFFF
        value ^= value >> 16
        value = (value * 0x85EBCA6B) & 0xFFFFFFFF
        value ^= value >> 13
        return value

    def call(self, site: int) -> None:
        """Enter a function: push the call site's synthetic return address."""
        self._return_stack.append(self._addresses[site])

    def ret(self) -> None:
        """Leave the current function."""
        if not self._return_stack:
            raise TraceError("ret() with empty return stack")
        self._return_stack.pop()

    def push_frame(self, frame_bytes: int) -> None:
        """Open a stack frame of ``frame_bytes`` locals."""
        self._frame_bases.append(self._sp)
        self._sp += frame_bytes
        if self._sp > self._max_sp:
            self._max_sp = self._sp
            self.sink.on_stack_depth(self._sp)

    def pop_frame(self) -> None:
        """Close the current stack frame."""
        if not self._frame_bases:
            raise TraceError("pop_frame() with no open frame")
        self._sp = self._frame_bases.pop()

    def function(self, site: int, frame_bytes: int = 0) -> _Function:
        """Combined call + frame as a context manager."""
        return _Function(self, site, frame_bytes)

    @property
    def return_addresses(self) -> tuple[int, ...]:
        """Current synthetic return addresses, most recent first."""
        return tuple(reversed(self._return_stack))

    # -- memory references ---------------------------------------------------

    def load(self, ref: Ref, offset: int, size: int = WORD_SIZE) -> None:
        """Emit a load of ``size`` bytes at ``offset`` within ``ref``."""
        if not ref.alive or offset < 0 or size < 1 or offset + size > ref.size:
            _reject(ref, offset, size)
        self._write((ref.obj_id, offset, size, False, ref.category))

    def store(self, ref: Ref, offset: int, size: int = WORD_SIZE) -> None:
        """Emit a store of ``size`` bytes at ``offset`` within ``ref``."""
        if not ref.alive or offset < 0 or size < 1 or offset + size > ref.size:
            _reject(ref, offset, size)
        self._write((ref.obj_id, offset, size, True, ref.category))

    def load_local(self, frame_offset: int, size: int = WORD_SIZE) -> None:
        """Load a local variable of the current frame (a stack reference)."""
        frames = self._frame_bases
        if (
            not frames
            or frame_offset < 0
            or size < 1
            or (offset := frames[-1] + frame_offset) + size > self._sp
        ):
            _reject_local(frames, frame_offset, size)
        self._write((STACK_OBJECT_ID, offset, size, False, _STACK))

    def store_local(self, frame_offset: int, size: int = WORD_SIZE) -> None:
        """Store a local variable of the current frame (a stack reference)."""
        frames = self._frame_bases
        if (
            not frames
            or frame_offset < 0
            or size < 1
            or (offset := frames[-1] + frame_offset) + size > self._sp
        ):
            _reject_local(frames, frame_offset, size)
        self._write((STACK_OBJECT_ID, offset, size, True, _STACK))

    def compute(self, instructions: int) -> None:
        """Execute ``instructions`` instructions that touch no memory."""
        self.sink.on_compute(instructions)

    # -- heap ----------------------------------------------------------------

    def malloc(self, size: int, symbol: str | None = None) -> Ref:
        """Allocate a heap object, capturing the live return-address stack."""
        if size <= 0:
            raise TraceError(f"malloc size must be positive, got {size}")
        info = ObjectInfo(
            obj_id=self._next_obj_id,
            category=Category.HEAP,
            size=size,
            symbol=symbol or f"heap#{self._next_obj_id}",
            decl_index=self._decl_index,
        )
        self._next_obj_id += 1
        self._decl_index += 1
        self.sink.on_alloc(info, self.return_addresses)
        return Ref(info.obj_id, size, Category.HEAP)

    def free(self, ref: Ref) -> None:
        """Deallocate a heap object."""
        if ref.category is not Category.HEAP:
            raise TraceError("free() of a non-heap object")
        if not ref.alive:
            raise TraceError(f"double free of object {ref.obj_id}")
        ref.alive = False
        self.sink.on_free(ref.obj_id)

    def realloc(self, ref: Ref, new_size: int) -> Ref:
        """Resize a heap object.

        Following the paper's methodology (Section 4), a realloc is treated
        as a malloc of the new size followed by a free of the old object.
        """
        new_ref = self.malloc(new_size)
        self.free(ref)
        return new_ref
