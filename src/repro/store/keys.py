"""Cache-key construction for the content-addressed artifact store.

Every pipeline stage output (Name profile + TRG, placement map, per-run
simulation statistics) is a pure function of its inputs, so each store
entry is keyed by a SHA-256 digest over a *canonical JSON* rendering of
those inputs:

* the **trace fingerprint** — a sha256 over the recorded access columns
  and the trace's *ops document* (:func:`ops_document`: the canonical
  JSON of its ops, counters and end marker), standing in for "which
  workload run";
* the **cache geometry** — always the explicit ``(size, line_size,
  associativity)`` triple, never the config object itself (mirroring
  :func:`repro.experiments.common._config_key`);
* the **stage parameters** — profiler knobs, placer engine, resolver
  policy, classification flags;
* the **code-version salt** — a digest over the package's own source,
  so any code change invalidates every prior entry wholesale.

Canonical JSON sorts keys, forbids NaN, and coerces numpy scalars to
their Python equivalents, so a key built from freshly computed values and
one built from round-tripped JSON are byte-identical.  Entry payloads do
not go through it: :meth:`~repro.store.store.ArtifactStore.put` encodes
a payload once and its digest covers the bytes written.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from ..cache.config import CacheConfig
from ..trace.buffer import _OP_ALLOC, _OP_OBJECT
from ..trace.events import Category, ObjectInfo

#: Bumped on breaking store-layout changes; folded into every salt.
STORE_FORMAT = 2

#: Environment override for the code-version salt (tests, pinned runs).
SALT_ENV = "REPRO_CACHE_SALT"

_code_salt_cache: str | None = None


def _jsonable(value):
    """Coerce numpy scalars so canonical JSON is stable across engines."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"not canonically serializable: {value!r}")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, tight separators, no NaN."""
    return json.dumps(
        value,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        default=_jsonable,
    )


def digest_json(value) -> str:
    """Hex SHA-256 of the canonical JSON rendering of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def code_salt() -> str:
    """Digest of the ``repro`` package source: the invalidation salt.

    Hashes every ``.py`` file under the package directory (sorted by
    relative path) together with :data:`STORE_FORMAT`, so editing any
    pipeline code — or bumping the store format — orphans all prior
    entries rather than risking a stale hit.  ``REPRO_CACHE_SALT`` in
    the environment overrides the computed value (used by tests to
    simulate version skew without touching source files).
    """
    override = os.environ.get(SALT_ENV)
    if override:
        return override
    global _code_salt_cache
    if _code_salt_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        hasher.update(f"store-format:{STORE_FORMAT}".encode())
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(str(path.relative_to(package_root)).encode())
            hasher.update(path.read_bytes())
        _code_salt_cache = hasher.hexdigest()
    return _code_salt_cache


def config_fields(config: CacheConfig | None) -> dict | None:
    """Explicit geometry triple for a key (None stays None)."""
    if config is None:
        return None
    return {
        "size": int(config.size),
        "line_size": int(config.line_size),
        "associativity": int(config.associativity),
    }


def store_key(kind: str, fields: dict) -> str:
    """Digest identifying one store entry: kind + salt + key fields."""
    return digest_json({"kind": kind, "salt": code_salt(), "fields": fields})


# -- trace fingerprints -------------------------------------------------------


def _info_fields(info: ObjectInfo) -> list:
    return [
        info.obj_id,
        int(info.category),
        info.size,
        info.symbol,
        info.decl_index,
        info.alloc_name,
    ]


def ops_document(trace) -> bytes:
    """Canonical JSON of a trace's ops, counters and end marker.

    The document is ``{"compute_instructions", "ended",
    "max_stack_depth", "ops"}``, each op a ``[position, kind, payload]``
    list.  Compute, free and stack-depth ops carry an int payload and go
    to the encoder as recorded; only :class:`ObjectInfo` payloads are
    converted, to ``[obj_id, category, size, symbol, decl_index,
    alloc_name]``.  :func:`trace_fingerprint` hashes these bytes, the
    ``trace`` store entry and the serve upload envelope ship them, and
    :func:`decode_ops` parses them back.
    """
    ops = []
    append = ops.append
    for op in trace.ops:
        kind = op[1]
        if kind == _OP_OBJECT:
            op = (op[0], kind, _info_fields(op[2]))
        elif kind == _OP_ALLOC:
            info, return_addresses = op[2]
            op = (op[0], kind, (_info_fields(info), return_addresses))
        append(op)
    return canonical_json(
        {
            "ops": ops,
            "compute_instructions": trace.compute_instructions,
            "max_stack_depth": trace.max_stack_depth,
            "ended": trace.ended,
        }
    ).encode("utf-8")


def _decode_info(raw: list) -> ObjectInfo:
    obj_id, category, size, symbol, decl_index, alloc_name = raw
    return ObjectInfo(
        obj_id=obj_id,
        category=Category(category),
        size=size,
        symbol=symbol,
        decl_index=decl_index,
        alloc_name=alloc_name,
    )


def decode_ops(document: bytes) -> dict:
    """Parse an :func:`ops_document`.

    Returns the document's fields with ``ops`` rebuilt as the recorder's
    ``(position, kind, payload)`` tuples.  Raises :class:`ValueError`
    when the bytes are not an ops document.
    """
    try:
        data = json.loads(document)
        ops: list[tuple[int, int, object]] = []
        for position, kind, payload in data["ops"]:
            if kind == _OP_OBJECT:
                payload = _decode_info(payload)
            elif kind == _OP_ALLOC:
                info, return_addresses = payload
                payload = (_decode_info(info), tuple(return_addresses))
            ops.append((position, kind, payload))
        data["ops"] = ops
        data["compute_instructions"] = int(data["compute_instructions"])
        data["max_stack_depth"] = int(data["max_stack_depth"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed ops document: {exc!r}") from exc
    return data


def memoized_fingerprint(trace) -> str | None:
    """The fingerprint already computed for ``trace`` in full, if any."""
    cached = getattr(trace, "_fingerprint", None)
    if cached is not None and cached[0] == len(trace):
        return cached[1]
    return None


def trace_fingerprint(trace, document: bytes | None = None) -> str:
    """Content digest of one recorded trace (columns + ops document).

    The fingerprint covers the five access columns byte-for-byte and the
    :func:`ops_document` (every recorded op, compute batches included,
    and the end marker), so two runs fingerprint equal exactly when a
    consumer of the recording could not tell them apart.  A caller that
    has rendered the document passes it as ``document``.  Memoized on
    the recorder.
    """
    fingerprint = memoized_fingerprint(trace)
    if fingerprint is not None:
        return fingerprint
    hasher = hashlib.sha256()
    for column in trace.columns():
        hasher.update(np.ascontiguousarray(column))
    hasher.update(ops_document(trace) if document is None else document)
    fingerprint = hasher.hexdigest()
    trace._fingerprint = (len(trace), fingerprint)
    return fingerprint
