"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

``python -m bench`` runs every workload named in ``BENCHMARK.json`` (or
one, with ``--workload``) in its own single-threaded subprocess, checks
the outputs, prints each metric with its unit and writes JSON.  See
``bench/README.md`` for the workloads, metrics, bounds and commands.

The package reads nothing of ``repro`` at import time: the worker
(:mod:`bench.worker`) puts the checkout's ``src`` first on ``sys.path``
itself, so the benchmark always measures the code beside it.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Checkout root: the directory holding ``BENCHMARK.json`` and ``bench/``.
ROOT = Path(__file__).resolve().parent.parent

#: Source tree of the package under test.
SRC = ROOT / "src"

#: The benchmark definition (workloads, metrics, bounds, run length).
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Scratch space for stores, worker results and spans; removed after use.
TMP_ROOT = ROOT / ".bench_tmp"

#: Pinned seed-0 digests and trace fingerprints the correctness gate checks.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected_seed0.json"


def load_spec() -> dict:
    """Parse ``BENCHMARK.json``."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)
