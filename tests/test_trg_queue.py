"""The O(1) recency-queue rewrite must keep TRG edges bit-identical.

``TRGBuilder`` replaced its list-based queue (O(n) ``list.index`` and
removal per reference) with an ordered-dict queue.  These tests pin the
observable behaviour to the original list implementation, reproduced
here verbatim as ``ListQueueTRGBuilder``: identical ``edges`` dicts on
random streams and on a real recorded workload trace, and identical
queue-accounting properties along the way.
"""

from __future__ import annotations

import random

import pytest

from repro.workloads import make_workload
from repro.workloads.synthetic import heap_churn_only
from tests import oracles
from tests.oracles import ProfilerSink, TRGBuilder


class ListQueueTRGBuilder:
    """The seed's list-based queue, kept as the behavioural reference."""

    def __init__(self, queue_threshold, chunk_size=256):
        self.queue_threshold = queue_threshold
        self.chunk_size = chunk_size
        self.edges = {}
        self._queue = []
        self._entry_bytes = {}
        self._queued_bytes = 0

    def observe(self, eid, chunk, entry_bytes):
        key = (eid, chunk)
        queue = self._queue
        if queue and queue[0] == key:
            return
        edges = self.edges
        try:
            position = queue.index(key)
        except ValueError:
            position = -1
        if position >= 0:
            for other in queue[:position]:
                if other[0] == eid and other[1] == chunk:
                    continue
                edge = (key, other) if key <= other else (other, key)
                edges[edge] = edges.get(edge, 0) + 1
            del queue[position]
            self._queued_bytes -= self._entry_bytes[key]
        queue.insert(0, key)
        self._entry_bytes[key] = entry_bytes
        self._queued_bytes += entry_bytes
        while self._queued_bytes > self.queue_threshold and len(queue) > 1:
            evicted = queue.pop()
            self._queued_bytes -= self._entry_bytes.pop(evicted)

    @property
    def queue_length(self):
        return len(self._queue)

    @property
    def queued_bytes(self):
        return self._queued_bytes


def _random_stream(seed, events=4000, entities=24, chunks=6):
    rng = random.Random(seed)
    stream = []
    for _ in range(events):
        eid = rng.randrange(entities)
        chunk = rng.randrange(chunks)
        entry_bytes = rng.choice((16, 64, 256))
        stream.append((eid, chunk, entry_bytes))
    return stream


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("threshold", [256, 1024, 16384])
def test_edges_identical_on_random_streams(seed, threshold):
    fast = TRGBuilder(threshold)
    reference = ListQueueTRGBuilder(threshold)
    for eid, chunk, entry_bytes in _random_stream(seed):
        fast.observe(eid, chunk, entry_bytes)
        reference.observe(eid, chunk, entry_bytes)
        assert fast.queued_bytes == reference.queued_bytes
        assert fast.queue_length == reference.queue_length
    assert fast.edges == reference.edges


def test_entry_bytes_update_on_requeue():
    """Re-referencing a queued chunk re-accounts its byte size."""
    fast = TRGBuilder(1024)
    reference = ListQueueTRGBuilder(1024)
    stream = [(1, 0, 256), (2, 0, 256), (1, 0, 64), (3, 0, 256), (1, 0, 256)]
    for event in stream:
        fast.observe(*event)
        reference.observe(*event)
        assert fast.queued_bytes == reference.queued_bytes
    assert fast.edges == reference.edges


@pytest.mark.parametrize("workload_name", ["deltablue", "synthetic-heap"])
def test_edges_identical_on_recorded_trace(monkeypatch, workload_name):
    """End-to-end: profiling a real workload yields identical TRG edges."""
    if workload_name == "synthetic-heap":
        workload = heap_churn_only()
    else:
        workload = make_workload(workload_name)

    sink = ProfilerSink()
    workload.run(sink, workload.train_input)
    fast_profile = sink.profile

    monkeypatch.setattr(oracles, "TRGBuilder", ListQueueTRGBuilder)
    sink = ProfilerSink()
    workload.run(sink, workload.train_input)
    reference_profile = sink.profile

    assert fast_profile.trg == reference_profile.trg
    assert fast_profile.total_accesses == reference_profile.total_accesses
