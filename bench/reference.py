"""Host speed: a fixed reference kernel, and a stopwatch that pauses to run it.

The benchmark shares a few cores of a host with other work, and the speed
of the same code drifts by a third within minutes.  :func:`seconds` times
a fixed piece of work of the kinds a pass does (interpreted dict and
string work, JSON, NumPy sorting and counting), which slows down with the
host in step.  :class:`Stopwatch` times a pass as a series of intervals and
times the reference between them, outside every interval, so each stretch
of the pass can be divided by how fast the host was just then.
"""

from __future__ import annotations

import functools
import gc
import json
import time

import numpy as np

from .tracer import ENTRY_POINTS, patch

#: Fixed input of the NumPy part (the same in every run).
_KEYS = np.random.default_rng(12345).integers(0, 1 << 30, 50_000)

#: Size of the dict of the interpreted part.
_ITEMS = 7_500

#: Reference timings per block; a block's value is their median.
REPEATS = 3

#: Shortest interval between two blocks, in seconds.
PAUSE_EVERY_S = 0.5

#: Seconds per reference unit for metrics that must be in seconds
#: (``setup_s``): a round figure near the fastest the reference ran in
#: the calibration runs, on 2 GHz Xeon vCPUs.
NOMINAL_S = 0.006


def seconds() -> float:
    """Wall time of one run of the reference work (about 7 ms).

    The cyclic garbage collector is off while it runs.  A collection
    triggered inside it would walk every object the workload keeps alive,
    and a change that kept more objects alive would then slow the
    reference and make the workload look faster.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        keys = np.sort(_KEYS)
        np.cumsum(keys)
        np.bincount(keys % 4096)
        table = {i: str(i) for i in range(_ITEMS)}
        json.loads(json.dumps(table))
        sorted(table.values())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def block() -> list[float]:
    """:data:`REPEATS` timings of the reference work."""
    return [seconds() for _ in range(REPEATS)]


def ratios(walls: list[float], blocks: list[list[float]]) -> list[float]:
    """Each interval's wall time in units of the reference time around it.

    ``blocks`` holds one more block than there are intervals:
    ``blocks[i]`` was timed just before interval ``i`` and
    ``blocks[i + 1]`` just after it.  The reference time of an interval is
    the mean of the medians of those two blocks.
    """
    medians = [sorted(b)[len(b) // 2] for b in blocks]
    return [
        wall / ((medians[i] + medians[i + 1]) / 2.0) for i, wall in enumerate(walls)
    ]


def in_units(wall: float, before: list[float]) -> float:
    """``wall`` seconds in reference units, as one interval.

    ``before`` is the block timed just before the interval began; the
    block after it is timed now.  Set-up steps are measured this way:
    they run once, in part in other processes, and cannot be paused.
    """
    return ratios([wall], [before, block()])[0]


class Stopwatch:
    """Times one pass as intervals, with a reference block between them.

    With ``pause=True`` every layer entry point of :mod:`bench.tracer`
    checks, when it is called and when it returns, whether
    :data:`PAUSE_EVERY_S` have gone by since the last block.  If so, it
    ends the interval, times a block and starts the next interval.  The
    blocks thus come at layer boundaries, at least that far apart, and no
    interval holds any of their time.  Traced passes run with
    ``pause=False``: the tracer wraps the same entry points.
    """

    def __init__(self, pause: bool):
        self.pause = pause
        self.walls: list[float] = []
        self.blocks: list[list[float]] = []
        #: Seconds from :meth:`start` to :meth:`stop`, blocks included.
        self.elapsed = 0.0
        self._began = 0.0
        self._start = 0.0
        self._restores: list = []

    def _wrap(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.checkpoint()
            try:
                return original(*args, **kwargs)
            finally:
                self.checkpoint()

        return wrapper

    def start(self) -> None:
        self._began = time.perf_counter()
        if self.pause:
            for entry in ENTRY_POINTS:
                self._restores.append(patch(entry.module, entry.qualname, self._wrap))
        self.blocks.append(block())
        self._start = time.perf_counter()

    def checkpoint(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self._start >= PAUSE_EVERY_S:
            self.walls.append(now - self._start)
            self.blocks.append(block())
            self._start = time.perf_counter()

    def stop(self) -> None:
        """End the last interval and put every wrapped entry point back."""
        self.checkpoint(force=True)
        while self._restores:
            self._restores.pop()()
        self.elapsed = time.perf_counter() - self._began

    @property
    def wall(self) -> float:
        """Time of the pass, reference blocks excluded."""
        return sum(self.walls)

    @property
    def wall_ref(self) -> float:
        """Time of the pass in reference units."""
        return sum(ratios(self.walls, self.blocks))

    @property
    def ref_s(self) -> float:
        """Median reference timing over the pass."""
        timings = sorted(t for b in self.blocks for t in b)
        return timings[len(timings) // 2]
