"""The persistent, content-addressed artifact store.

Entries live under ``<root>/objects/<kind>/<digest[:2]>/<digest>.json``,
where the digest is :func:`repro.store.keys.store_key` over the stage's
key fields plus the code-version salt.  Each file is one JSON header
line followed by the payload bytes::

    {"format": 2, "kind": "...", "salt": "...", "fields": {...},
     "length": N, "sha256": "...", "document": D,
     "blocks": [["<i8", count], ...]}\n
    <D bytes of compact JSON><array blocks, back to back>

The payload is a compact JSON document followed by raw little-endian
array blocks.  :meth:`ArtifactStore.put` encodes a payload once: any
numpy array in it (dtype int8, int32, int64 or uint8) becomes the next
block, and the document holds ``{"$block": i}`` in its place.  ``length``
and ``sha256`` cover the payload bytes exactly as written, so
:meth:`ArtifactStore.get` checks the bytes it read and never re-encodes.

Writes are atomic (a temp file of their own + ``os.replace``), so a
crashed run can leave at worst an orphaned temp file, never a
half-written entry under its final name, and two writers of one entry
never share a temp file.  Reads are *defensive*: a truncated file, an
undecodable header or document, a payload that fails its length or
digest, a block table that does not fit the body, a block dtype outside
the allowed set, a placeholder naming no block, or a salt or format
from another code version are all treated as a miss — the entry is
deleted and the caller recomputes and rewrites, mirroring how the trace
layer degrades on :class:`~repro.trace.events.TraceError` rather than
crashing a sweep.  Maintenance (``stats``, ``gc``) reads header lines
only.

Every consultation is mirrored to the observability layer: ``store.hit``
/ ``store.miss`` / ``store.corrupt`` count lookups, ``store.write``
counts inserts, and ``store.bytes`` accumulates bytes written.  The
instance keeps the same tallies locally so a CLI run can summarize cache
effectiveness even with no telemetry registry installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..obs import telemetry as obs
from .keys import STORE_FORMAT, code_salt, store_key

#: Default store location when neither ``--cache-dir`` nor the
#: ``REPRO_CACHE_DIR`` environment variable names one.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment variable naming the store root for CLI runs.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Dtypes an array block may carry: int8, int32, int64, uint8.
BLOCK_DTYPES = frozenset(np.dtype(dtype).str for dtype in ("<i1", "<i4", "<i8", "<u1"))

#: Key of the document placeholder that stands for an array block.
BLOCK_REF = "$block"


class StoreEntryError(Exception):
    """An on-disk entry failed validation (corrupt, stale, truncated)."""


@dataclass
class StoreCounters:
    """Per-instance lookup/write tallies (mirrored to ``obs`` counters)."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0
    bytes_written: int = 0


@dataclass
class StoreStats:
    """Aggregate picture of what is on disk (``repro cache stats``)."""

    root: str
    entries: int = 0
    bytes: int = 0
    stale: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    trace_files: int = 0
    trace_bytes: int = 0


def _encode_payload(payload) -> tuple[bytes, list[np.ndarray]]:
    """The payload's compact JSON document and its array blocks."""
    blocks: list[np.ndarray] = []

    def to_block(value):
        if not isinstance(value, np.ndarray) or value.ndim != 1:
            raise TypeError(f"not storable in an entry: {value!r}")
        block = np.ascontiguousarray(value, dtype=value.dtype.newbyteorder("<"))
        if block.dtype.str not in BLOCK_DTYPES:
            raise TypeError(f"array dtype {block.dtype} is not a block dtype")
        blocks.append(block)
        return {BLOCK_REF: len(blocks) - 1}

    document = json.dumps(
        payload, separators=(",", ":"), allow_nan=False, default=to_block
    ).encode("utf-8")
    return document, blocks


def _decode_entry(raw: bytes, kind: str):
    """Validate one entry's bytes and decode its payload.

    Raises :class:`StoreEntryError` on any mismatch.  The payload is
    checked by its length and a sha256 over the bytes read (the
    ``store.verify`` span); blocks are zero-copy views of ``raw``.
    """
    newline = raw.find(b"\n")
    if newline < 0:
        raise StoreEntryError("entry has no header line")
    try:
        header = json.loads(raw[:newline])
    except ValueError as exc:
        raise StoreEntryError(f"undecodable entry header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != kind:
        raise StoreEntryError("entry kind mismatch")
    if header.get("format") != STORE_FORMAT:
        raise StoreEntryError("store format mismatch")
    if header.get("salt") != code_salt():
        raise StoreEntryError("code-version salt mismatch")
    body = memoryview(raw)[newline + 1 :]
    with obs.child_span("store.verify"):
        if header.get("length") != len(body):
            raise StoreEntryError("payload length mismatch")
        if hashlib.sha256(body).hexdigest() != header.get("sha256"):
            raise StoreEntryError("payload digest mismatch")
    size = header.get("document")
    if type(size) is not int or size < 0:
        raise StoreEntryError("bad document length")
    cursor = size
    try:
        arrays = []
        for dtype, count in header["blocks"]:
            if dtype not in BLOCK_DTYPES or count < 0:
                raise StoreEntryError(f"bad block ({dtype!r}, {count!r})")
            dtype = np.dtype(dtype)
            arrays.append(np.frombuffer(body, dtype, count, cursor))
            cursor += dtype.itemsize * count
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreEntryError(f"bad block table: {exc}") from exc
    if cursor != len(body):
        raise StoreEntryError("block table does not match the payload length")

    def resolve(obj: dict):
        if BLOCK_REF not in obj:
            return obj
        index = obj[BLOCK_REF]
        if len(obj) != 1 or type(index) is not int or not 0 <= index < len(arrays):
            raise StoreEntryError(f"placeholder names no block: {obj!r}")
        return arrays[index]

    try:
        return json.loads(raw[newline + 1 : newline + 1 + size], object_hook=resolve)
    except ValueError as exc:
        raise StoreEntryError(f"undecodable entry document: {exc}") from exc


def _read_header(path: Path) -> dict:
    """An entry's header line alone (raises ``OSError``/``ValueError``)."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
    if not isinstance(header, dict):
        raise ValueError("entry header is not an object")
    return header


class ProbeTally:
    """Scratch counters for one speculative warm-path probe.

    A *probe* is a batch of lookups whose outcome is only meaningful as a
    whole — e.g. :func:`repro.store.stages.try_load_experiment` reading
    five entries where a single miss abandons the warm path.  Tallying
    those lookups directly would double-count: the probe's misses are
    followed by the real get-or-compute consultations of the fallback
    path, and a failed probe's partial hits are re-read moments later.
    Under :meth:`ArtifactStore.probing` every lookup lands here instead;
    the caller calls :meth:`commit` only when the warm load succeeded,
    which folds the hits (and corrupt tallies) into the store's real
    counters exactly once.  Misses observed during a probe are never
    committed — the fallback path's own lookups account for them.
    """

    def __init__(self, store: "ArtifactStore"):
        self._store = store
        self.hits = 0
        self.misses = 0
        self.committed = False

    def commit(self) -> None:
        """Fold the probe's hits into the store counters (idempotent)."""
        if self.committed:
            return
        self.committed = True
        self._store.counters.hits += self.hits
        if self.hits:
            obs.count("store.hit", self.hits)


class ArtifactStore:
    """Content-addressed artifact store rooted at one directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.counters = StoreCounters()
        # Probe stacks are per-thread: the serve daemon's request thread
        # validates (probing) while its dispatcher thread executes, and a
        # shared stack would misfile lookups across threads.
        self._probe_local = threading.local()

    @property
    def _probes(self) -> list["ProbeTally"]:
        stack = getattr(self._probe_local, "stack", None)
        if stack is None:
            stack = self._probe_local.stack = []
        return stack

    # -- paths ---------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def traces_dir(self) -> Path:
        """Root of the binary trace-column artifacts (``*.trace`` files)."""
        return self.root / "traces"

    def entry_path(self, kind: str, digest: str) -> Path:
        return self.objects_dir / kind / digest[:2] / f"{digest}.json"

    # -- lookups -------------------------------------------------------------

    def key(self, kind: str, fields: dict) -> str:
        """Digest identifying the entry for ``fields`` under ``kind``."""
        return store_key(kind, fields)

    def get(self, kind: str, digest: str, companions=()):
        """Payload for an entry, or ``None`` on miss/corruption.

        Any validation failure — unreadable file, a header or document
        that does not decode, wrong kind, format or salt, a payload that
        fails its length or digest, or a bad block table — deletes the
        entry, and the ``companions`` paths with it, and reports a miss,
        so callers always fall back to recompute-and-rewrite.  Array
        blocks come back as read-only numpy views of the bytes read.

        Inside an open span the steps open child spans: ``store.read``
        (the file's bytes), then ``store.decode`` (header, document and
        blocks), with ``store.verify`` (length and sha256) nested in it.
        """
        path = self.entry_path(kind, digest)
        try:
            with obs.child_span("store.read"):
                raw = path.read_bytes()
        except OSError:
            self._miss()
            return None
        try:
            with obs.child_span("store.decode"):
                payload = _decode_entry(raw, kind)
        except StoreEntryError:
            # Corruption is counted immediately even inside a probe: the
            # entry really was discarded, whatever the probe concludes.
            self.counters.corrupt += 1
            obs.count("store.corrupt")
            self._discard(path)
            for companion in companions:
                self._discard(companion)
            self._miss()
            return None
        if self._probes:
            self._probes[-1].hits += 1
        else:
            self.counters.hits += 1
            obs.count("store.hit")
        try:
            os.utime(path)  # LRU recency for gc
        except OSError:
            pass
        return payload

    def _miss(self) -> None:
        if self._probes:
            self._probes[-1].misses += 1
            return
        self.counters.misses += 1
        obs.count("store.miss")

    @contextmanager
    def probing(self):
        """Divert lookup tallies to a :class:`ProbeTally` for the block.

        The yielded tally is the single source of truth for whether the
        probe's lookups ever count: call :meth:`ProbeTally.commit` after
        the block when (and only when) the warm load fully succeeded.
        Probes nest; lookups land in the innermost active tally.
        """
        tally = ProbeTally(self)
        self._probes.append(tally)
        try:
            yield tally
        finally:
            self._probes.pop()

    def _discard(self, path: str | Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- inserts -------------------------------------------------------------

    def put(self, kind: str, digest: str, fields: dict, payload) -> None:
        """Write one entry atomically (idempotent: last write wins).

        The payload is encoded once; the header's length and digest
        cover exactly the bytes written.
        """
        document, blocks = _encode_payload(payload)
        hasher = hashlib.sha256(document)
        for block in blocks:
            hasher.update(block)
        length = len(document) + sum(block.nbytes for block in blocks)
        header = {
            "format": STORE_FORMAT,
            "kind": kind,
            "salt": code_salt(),
            "fields": fields,
            "length": length,
            "sha256": hasher.hexdigest(),
            "document": len(document),
            "blocks": [[block.dtype.str, block.size] for block in blocks],
        }
        head = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
        path = self.entry_path(kind, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(
            prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(handle, "wb") as out:
                out.write(head)
                out.write(document)
                for block in blocks:
                    out.write(block)
            os.replace(temp, path)
        finally:
            if os.path.exists(temp):
                self._discard(temp)
        written = len(head) + length
        self.counters.writes += 1
        self.counters.bytes_written += written
        obs.count("store.write")
        obs.count("store.bytes", written)

    def get_or_compute(self, kind: str, fields: dict, *, encode, decode, compute):
        """Serve a decoded artifact, computing and persisting on miss.

        ``decode`` failures on a hit are treated exactly like on-disk
        corruption: the entry is dropped and the value recomputed.
        Decoding opens a ``store.load`` child span.
        """
        digest = self.key(kind, fields)
        payload = self.get(kind, digest)
        if payload is not None:
            try:
                with obs.child_span("store.load", kind=kind):
                    return decode(payload)
            except Exception:
                self.counters.corrupt += 1
                obs.count("store.corrupt")
                self._discard(self.entry_path(kind, digest))
        value = compute()
        self.put(kind, digest, fields, encode(value))
        return value

    # -- maintenance ---------------------------------------------------------

    def _entries(self):
        if not self.objects_dir.is_dir():
            return
        for path in self.objects_dir.rglob("*.json"):
            if path.name.startswith("."):
                continue
            yield path

    def _trace_files(self):
        if not self.traces_dir.is_dir():
            return
        for path in self.traces_dir.rglob("*.trace"):
            if path.name.startswith("."):
                continue
            yield path

    def stats(self) -> StoreStats:
        """Walk the tree and summarize entry counts, bytes, staleness.

        Binary trace-column files (``traces/*.trace``) are tallied
        separately from the JSON entries — they dominate the on-disk
        bytes by orders of magnitude — and also appear in
        ``bytes_by_kind`` under the pseudo-kind ``trace-data``.
        """
        summary = StoreStats(root=str(self.root))
        salt = code_salt()
        for path in self._entries():
            kind = path.parent.parent.name
            summary.entries += 1
            summary.by_kind[kind] = summary.by_kind.get(kind, 0) + 1
            try:
                stat = path.stat()
                summary.bytes += stat.st_size
                summary.bytes_by_kind[kind] = (
                    summary.bytes_by_kind.get(kind, 0) + stat.st_size
                )
                if _read_header(path).get("salt") != salt:
                    summary.stale += 1
            except (OSError, ValueError):
                summary.stale += 1
        for path in self._trace_files():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            summary.trace_files += 1
            summary.trace_bytes += size
            summary.bytes += size
            summary.bytes_by_kind["trace-data"] = (
                summary.bytes_by_kind.get("trace-data", 0) + size
            )
        return summary

    # -- in-use pins ---------------------------------------------------------

    @property
    def pins_dir(self) -> Path:
        """Root of the in-use pin files (``<root>/pins/``)."""
        return self.root / "pins"

    def _pin_path(self, fingerprint: str) -> Path:
        return self.pins_dir / f"{fingerprint}.{os.getpid()}.pin"

    def pin_trace(self, fingerprint: str) -> None:
        """Mark a trace fingerprint as in use by this process.

        A long-running daemon holds attached traces as read-only memory
        maps; a concurrent ``repro cache gc`` (another process, same
        store root) must not collect them.  Pins are pid-stamped files
        under ``pins/`` so they are visible across processes and a
        crashed pinner leaves only stale pins, which
        :meth:`pinned_fingerprints` detects (dead pid) and sweeps.
        """
        path = self._pin_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            path.write_text(f"{os.getpid()}\n")
        except OSError:
            return
        obs.count("store.pin")

    def unpin_trace(self, fingerprint: str) -> None:
        """Drop this process's pin on ``fingerprint`` (idempotent)."""
        self._discard(self._pin_path(fingerprint))

    def release_pins(self) -> int:
        """Remove every pin held by this process; returns the count."""
        removed = 0
        if self.pins_dir.is_dir():
            for path in self.pins_dir.glob(f"*.{os.getpid()}.pin"):
                self._discard(path)
                removed += 1
        return removed

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except (PermissionError, OSError):
            return True
        return True

    def pinned_fingerprints(self) -> set[str]:
        """Fingerprints pinned by live processes.

        Stale pins — files whose stamped pid no longer exists — are
        deleted on the way through, so a crashed daemon cannot protect
        artifacts forever.
        """
        pinned: set[str] = set()
        if not self.pins_dir.is_dir():
            return pinned
        for path in self.pins_dir.glob("*.pin"):
            fingerprint, _dot, pid_text = path.name[: -len(".pin")].rpartition(".")
            try:
                pid = int(pid_text)
            except ValueError:
                self._discard(path)
                continue
            if not fingerprint or not self._pid_alive(pid):
                self._discard(path)
                continue
            pinned.add(fingerprint)
        return pinned

    @staticmethod
    def _entry_fingerprint(path: Path, header: dict) -> str | None:
        """The trace fingerprint an entry references, if it is trace-like.

        A ``trace`` entry is keyed by its fingerprint, so its header
        names it.  A ``trace-meta`` entry holds it in its document, a
        few dozen bytes right after the header, read only for pins.
        """
        kind = header.get("kind")
        try:
            if kind == "trace":
                return header["fields"]["fingerprint"]
            if kind == "trace-meta":
                with open(path, "rb") as handle:
                    handle.readline()
                    document = handle.read(header["document"])
                return json.loads(document)["fingerprint"]
        except (OSError, ValueError, TypeError, KeyError):
            pass
        return None

    def gc(
        self, max_bytes: int | None = None, max_age_days: float | None = None
    ) -> tuple[int, int]:
        """Evict entries; returns ``(entries_removed, bytes_removed)``.

        Three passes, cheapest first: entries from other code versions
        (or unreadable ones) always go; entries older than
        ``max_age_days`` go next; then oldest-first eviction until the
        store fits ``max_bytes``.

        Trace artifacts pinned by a live process (:meth:`pin_trace`) are
        exempt from the age and byte-pressure passes — a daemon holding
        an attached trace keeps its fingerprint loadable.  Stale-salt
        eviction still wins: an entry from another code version is
        unreadable by definition, pinned or not.
        """
        salt = code_salt()
        now = time.time()
        pinned = self.pinned_fingerprints()
        removed = removed_bytes = 0
        survivors: list[tuple[float, int, Path]] = []
        for path in self._entries():
            try:
                stat = path.stat()
                header = _read_header(path)
                stale = header.get("salt") != salt
            except (OSError, ValueError):
                stale = True
                stat = None
            protected = (
                not stale
                and pinned
                and self._entry_fingerprint(path, header) in pinned
            )
            age_days = (now - stat.st_mtime) / 86400.0 if stat else 0.0
            expired = max_age_days is not None and age_days > max_age_days
            if stale or (expired and not protected):
                removed += 1
                removed_bytes += stat.st_size if stat else 0
                self._discard(path)
                continue
            if not protected:
                survivors.append((stat.st_mtime, stat.st_size, path))
        if max_bytes is not None:
            total = sum(size for _mtime, size, _path in survivors)
            for _mtime, size, path in sorted(survivors):
                if total <= max_bytes:
                    break
                self._discard(path)
                total -= size
                removed += 1
                removed_bytes += size
        trace_removed, trace_bytes = self._gc_trace_files(pinned)
        return removed + trace_removed, removed_bytes + trace_bytes

    def _gc_trace_files(self, pinned: set[str] | None = None) -> tuple[int, int]:
        """Drop trace data files no surviving ``trace`` entry references.

        Runs after the entry passes, so evicting a ``trace`` entry (stale
        salt, age, or byte pressure) automatically reclaims its — much
        larger — column file on the same gc.  Pinned fingerprints count
        as referenced even without a surviving entry.
        """
        referenced: set[str] = set(pinned or ())
        trace_entries = self.objects_dir / "trace"
        if trace_entries.is_dir():
            for path in trace_entries.rglob("*.json"):
                if path.name.startswith("."):
                    continue
                try:
                    referenced.add(_read_header(path)["fields"]["fingerprint"])
                except (OSError, ValueError, TypeError, KeyError):
                    continue
        removed = removed_bytes = 0
        for path in self._trace_files():
            if path.stem in referenced:
                continue
            try:
                removed_bytes += path.stat().st_size
            except OSError:
                pass
            self._discard(path)
            removed += 1
        return removed, removed_bytes

    def clear(self) -> int:
        """Delete every entry (trace data files included); returns the count."""
        removed = 0
        for path in self._entries():
            self._discard(path)
            removed += 1
        for path in self._trace_files():
            self._discard(path)
            removed += 1
        return removed

    def summary_line(self) -> str:
        """One greppable line of this run's cache effectiveness."""
        tallies = self.counters
        return (
            f"[store] hits={tallies.hits} misses={tallies.misses} "
            f"corrupt={tallies.corrupt} writes={tallies.writes} "
            f"bytes_written={tallies.bytes_written} root={self.root}"
        )


# -- the active store ---------------------------------------------------------

_active: ArtifactStore | None = None


def current_store() -> ArtifactStore | None:
    """The installed artifact store, or None when caching is off."""
    return _active


def set_store(store: ArtifactStore | None) -> ArtifactStore | None:
    """Install ``store`` as the active store; returns the previous one."""
    global _active
    previous = _active
    _active = store
    return previous


class use_store:
    """Context manager installing a store for a ``with`` block."""

    def __init__(self, store: ArtifactStore | None):
        self._store = store
        self._previous: ArtifactStore | None = None

    def __enter__(self) -> ArtifactStore | None:
        self._previous = set_store(self._store)
        return self._store

    def __exit__(self, *exc_info) -> bool:
        set_store(self._previous)
        return False


def resolve_cache_dir(cache_dir: str | None = None) -> str:
    """Store root for a CLI run: flag > ``REPRO_CACHE_DIR`` > default."""
    if cache_dir:
        return cache_dir
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
