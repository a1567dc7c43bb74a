"""Hierarchical timing spans and monotonic counters for pipeline runs.

The paper's evaluation is an *attribution* exercise — every cache miss is
blamed on the object category that caused it (Section 5) — and the same
discipline applies to the pipeline itself: a profile→place→simulate run
should be able to say where its wall-clock and its events went.  This
module provides the measurement substrate:

* :class:`Span` — one timed region, nested into a tree
  (``telemetry.span("place.phase6")`` context managers).
* :class:`Telemetry` — the per-run registry of spans, monotonic counters,
  and gauges.  One registry lives for one logical run; worker processes
  build their own and the parent merges them
  (:meth:`Telemetry.merge_child`).

Instrumented library code does not thread a registry through every call:
it reports to the *current* registry via the module-level helpers
(:func:`span`, :func:`count`, :func:`gauge`), which are no-ops when no
registry is installed (:func:`use`).  The helpers are deliberately cheap
— one global read and a ``None`` check — and instrumentation sites sit at
chunk/phase granularity, never inside per-event loops, so the scalar and
batched hot paths are unaffected when telemetry is off and within noise
when it is on.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

#: Gauge name for the process high-water-mark resident set, in bytes.
PEAK_RSS_GAUGE = "mem.peak_rss"


def peak_rss_bytes() -> int:
    """High-water-mark resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; zero where
    the platform offers neither.  The value is monotonic for a process
    lifetime, so per-phase peaks need per-phase processes.
    """
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def sample_peak_rss() -> int:
    """Gauge the current peak RSS on the active registry; returns it."""
    peak = peak_rss_bytes()
    if peak:
        gauge_max(PEAK_RSS_GAUGE, peak)
    return peak


@dataclass
class Span:
    """One timed region of a run, with nested children.

    Attributes:
        name: Dotted span name, e.g. ``place.phase6``.
        seconds: Accumulated wall-clock duration.
        children: Sub-spans opened while this span was innermost.
        meta: Optional JSON-safe annotations (workload name, counts).
    """

    name: str
    seconds: float = 0.0
    children: list["Span"] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe encoding of the span subtree."""
        data: dict = {"name": self.name, "seconds": self.seconds}
        if self.meta:
            data["meta"] = dict(self.meta)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span subtree from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            seconds=data.get("seconds", 0.0),
            meta=dict(data.get("meta", {})),
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )

    def find(self, name: str) -> "Span | None":
        """Depth-first search for the first span named ``name``."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None


class Telemetry:
    """Per-run registry of spans, monotonic counters, and gauges.

    Counters only ever increase (:meth:`count`); gauges record the last
    written value (:meth:`gauge`).  Spans nest by context-manager scope.
    The registry is process-local; cross-process runs merge worker
    registries with :meth:`merge_child`.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **meta) -> Iterator[Span]:
        """Open a timed span; nests under the innermost open span."""
        record = Span(name=name, meta=dict(meta))
        if self._stack:
            self._stack[-1].children.append(record)
        else:
            self.roots.append(record)
        self._stack.append(record)
        began = time.perf_counter()
        try:
            yield record
        finally:
            record.seconds += time.perf_counter() - began
            self._stack.pop()
            # Spans bracket the pipeline's memory-heavy phases, so their
            # exits are natural sampling points for the RSS high-water
            # mark (one getrusage call; spans never sit in event loops).
            peak = peak_rss_bytes()
            if peak:
                self.gauge_max(PEAK_RSS_GAUGE, peak)

    def attach_span(self, span: Span) -> None:
        """Attach an already-built span tree under the innermost open span."""
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def find(self, name: str) -> Span | None:
        """Depth-first search across the root spans."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    # -- counters and gauges -------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Increment the monotonic counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record ``value`` as the gauge ``name`` (last write wins)."""
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Record ``value`` only if it exceeds the gauge's current value.

        High-water marks (peak RSS) use this so repeated samples and
        child merges compose as a maximum rather than a last write.
        """
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # -- merging and export ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe encoding of the whole registry."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": [root.to_dict() for root in self.roots],
        }

    def merge_child(self, payload: dict, label: str | None = None, **meta) -> None:
        """Merge a worker registry exported with :meth:`to_dict`.

        Counters are summed into this registry (they are monotonic, so
        per-worker sums compose); gauges are last-write-wins; the
        worker's span roots are attached under one wrapper span named
        ``label`` (or ``"child"``) at the current nesting point.  Extra
        keyword annotations (e.g. the retry ``attempt`` that produced
        this worker's result) land in the wrapper span's meta.
        """
        for name, amount in payload.get("counters", {}).items():
            self.count(name, amount)
        for name, value in payload.get("gauges", {}).items():
            # High-water marks compose as a maximum across workers; the
            # parent keeps the largest child peak rather than the last.
            if name == PEAK_RSS_GAUGE or name.endswith(".peak_rss"):
                self.gauge_max(name, value)
            else:
                self.gauge(name, value)
        roots = [Span.from_dict(raw) for raw in payload.get("spans", [])]
        wrapper = Span(
            name=label or "child",
            seconds=sum(root.seconds for root in roots),
            children=roots,
            meta=dict(meta),
        )
        self.attach_span(wrapper)

    def render(self) -> str:
        """Console tree of spans plus sorted counters and gauges."""
        lines: list[str] = []

        def walk(span: Span, prefix: str, is_last: bool) -> None:
            branch = "`- " if is_last else "|- "
            note = ""
            if span.meta:
                note = "  " + " ".join(
                    f"{key}={value}" for key, value in span.meta.items()
                )
            lines.append(
                f"{prefix}{branch}{span.name:<28} {span.seconds * 1000:9.2f} ms{note}"
            )
            extension = "   " if is_last else "|  "
            for index, child in enumerate(span.children):
                walk(child, prefix + extension, index == len(span.children) - 1)

        lines.append("spans:")
        for index, root in enumerate(self.roots):
            walk(root, "", index == len(self.roots) - 1)
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:<32} {self.counters[name]:>14,}")
        if self.gauges:
            lines.append("gauges:")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<32} {self.gauges[name]:>14,.3f}")
        return "\n".join(lines)


# -- the current registry -----------------------------------------------------

_current: Telemetry | None = None


def current() -> Telemetry | None:
    """The installed per-run registry, or None when telemetry is off."""
    return _current


@contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the current registry for a ``with`` block."""
    global _current
    previous = _current
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous


class _NullContext:
    """Reusable no-op context manager for the disabled-telemetry path."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullContext()


def span(name: str, **meta):
    """Open a span on the current registry; no-op when telemetry is off."""
    if _current is None:
        return _NULL_SPAN
    return _current.span(name, **meta)


def child_span(name: str, **meta):
    """Open a span only under an open span; no-op at the root or when off.

    For the fine steps of a stage, such as one store read: outside any
    stage they would add a root span per call to a long-lived registry
    (``repro serve`` keeps one for its whole life).
    """
    if _current is None or not _current._stack:
        return _NULL_SPAN
    return _current.span(name, **meta)


def count(name: str, amount: int = 1) -> None:
    """Increment a counter on the current registry; no-op when off."""
    if _current is not None:
        _current.count(name, amount)


def gauge(name: str, value: float) -> None:
    """Record a gauge on the current registry; no-op when off."""
    if _current is not None:
        _current.gauge(name, value)


def gauge_max(name: str, value: float) -> None:
    """Max-merge a gauge on the current registry; no-op when off."""
    if _current is not None:
        _current.gauge_max(name, value)
