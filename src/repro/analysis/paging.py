"""Virtual-memory paging analysis (paper, Table 5).

Table 5 reports, per program and placement, the total number of 8 KB pages
touched during execution and the average working-set size, computed over a
sliding window ("tau") of 1% of total execution time.  CCDP can slightly
*increase* both — the algorithm optimizes cache-line reuse, not page reuse
(Section 5.1) — and the bench for Table 5 checks exactly that shape.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ..memory.layout import PAGE_SIZE

#: The paper's working-set window: 1% of total execution time.
WORKING_SET_WINDOW_FRACTION = 0.01


class PageTracker:
    """Record the page-reference stream of one simulated run."""

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self._page_ids: dict[int, int] = {}
        self._stream = array("i")

    def touch_batch(self, addr: np.ndarray, size: np.ndarray) -> None:
        """Record a whole column chunk of references, vectorized.

        Page ids are assigned in first-touch order and spanning references
        expand to every covered page in ascending order: the page-id
        stream of the per-reference ``touch`` in ``tests/oracles.py``.
        """
        if not len(addr):
            return
        from ..cache.batch import expand_blocks

        pages, = expand_blocks(
            addr.astype(np.int64, copy=False),
            size.astype(np.int64, copy=False),
            self.page_size,
        )
        uniq, first_pos, inverse = np.unique(
            pages, return_index=True, return_inverse=True
        )
        ids = np.empty(len(uniq), dtype=np.int64)
        page_ids = self._page_ids
        # Assign fresh ids in order of first appearance within the chunk so
        # the global numbering follows first touch across chunks.
        for index in np.argsort(first_pos, kind="stable").tolist():
            page = int(uniq[index])
            page_id = page_ids.get(page)
            if page_id is None:
                page_id = len(page_ids)
                page_ids[page] = page_id
            ids[index] = page_id
        self._stream.frombytes(ids[inverse].astype(np.int32).tobytes())

    @property
    def total_pages(self) -> int:
        """Distinct pages touched over the whole run (Table 5 "Total")."""
        return len(self._page_ids)

    @property
    def references(self) -> int:
        """Length of the recorded page-reference stream."""
        return len(self._stream)

    def working_set(
        self, window_fraction: float = WORKING_SET_WINDOW_FRACTION
    ) -> float:
        """Average distinct pages per sliding window of the given fraction.

        Windows slide one reference at a time, matching a classic Denning
        working-set measurement with tau = ``window_fraction`` of the run.

        Computed by counting, for each reference, the windows in which it
        is the *first* occurrence of its page: reference ``j`` is first in
        window ``[i - w + 1, i]`` exactly when ``j`` is inside the window
        and the previous reference to the same page is not, so its
        contribution is a clipped index interval and the whole measurement
        reduces to an exact vectorized sum — identical, integer for
        integer, to sliding a window with incremental distinct counts.
        """
        n = len(self._stream)
        if n == 0:
            return 0.0
        window = max(1, int(n * window_fraction))
        stream = np.frombuffer(self._stream, dtype=np.int32)
        order = np.argsort(stream, kind="stable")
        sorted_pages = stream[order]
        # prev[j] = index of the previous reference to the same page.
        prev = np.full(n, -1, dtype=np.int64)
        same = sorted_pages[1:] == sorted_pages[:-1]
        prev[order[1:][same]] = order[:-1][same]
        positions = np.arange(n, dtype=np.int64)
        # Windows ending at i count j as distinct when
        # max(j, w-1, prev[j]+w) <= i <= min(j+w-1, n-1).
        low = np.maximum(np.maximum(positions, window - 1), prev + window)
        high = np.minimum(positions + window - 1, n - 1)
        total = int(np.maximum(high - low + 1, 0).sum())
        return total / (n - window + 1)


@dataclass(frozen=True)
class PagingSummary:
    """Table 5 numbers for one (program, placement) cell."""

    total_pages: int
    working_set: float

    @classmethod
    def from_tracker(cls, tracker: PageTracker) -> "PagingSummary":
        """Summarize a completed tracker."""
        return cls(
            total_pages=tracker.total_pages, working_set=tracker.working_set()
        )
