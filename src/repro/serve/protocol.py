"""Minimal HTTP/1.1 framing for the serve daemon (stdlib only).

The daemon speaks plain HTTP/1.1 with JSON bodies so any stock client
(``curl``, ``http.client``) can drive it; this module owns the byte-level
concerns so :mod:`repro.serve.daemon` can think in terms of routed
requests and JSON responses:

* :func:`read_request` — parse one request head + body off an asyncio
  stream, defensively: malformed framing raises :class:`ProtocolError`
  (the daemon answers 400 and closes), an oversized body raises
  :class:`PayloadTooLarge` (413), and a connection that dies mid-body
  surfaces as :class:`asyncio.IncompleteReadError` for the caller to
  swallow — a client disconnect must never take the daemon down.
* :func:`json_response` / :func:`write_response` — JSON replies with
  correct ``Content-Length`` and keep-alive handling.
* :func:`pack_trace_upload` / :func:`unpack_trace_upload` — the binary
  trace-upload envelope: a JSON metadata block (event count, ops
  document length, fingerprint), the trace's ops document, then the raw
  :mod:`repro.trace.plane` column container, so uploaded columns can be
  attached zero-copy on the server side.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

#: Upper bound on the request-head section (request line + headers).
MAX_HEAD_BYTES = 32 * 1024

#: Upper bound on request bodies.  A trace upload is the largest body a
#: client sends: the biggest registry trace (compress ``bigtest-40k``,
#: about 306k events) packs to 5.8 MiB, so 32 MiB admits every paper
#: trace with headroom while capping what one request can make the
#: daemon buffer.
MAX_BODY_BYTES = 32 << 20

#: Magic prefix of the binary trace-upload envelope.
UPLOAD_MAGIC = b"RTUP"

_UPLOAD_HEADER = struct.Struct("<4sI")  # magic + metadata byte length

#: Reason phrases for the status codes the daemon actually uses.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """The peer sent bytes that do not parse as an HTTP/1.1 request."""


class PayloadTooLarge(Exception):
    """The declared request body exceeds the daemon's byte ceiling."""

    def __init__(self, declared: int, limit: int):
        super().__init__(
            f"request body of {declared:,} bytes exceeds the "
            f"{limit:,}-byte limit"
        )
        self.declared = declared
        self.limit = limit


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self):
        """Decode the body as JSON, raising :class:`ProtocolError`."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
) -> Request | None:
    """Read one request off the stream, or ``None`` on a clean EOF.

    Raises :class:`ProtocolError` for malformed framing,
    :class:`PayloadTooLarge` when ``Content-Length`` exceeds
    ``max_body`` (the body is *not* consumed — the caller answers 413
    and closes), and lets :class:`asyncio.IncompleteReadError` /
    :class:`ConnectionError` from a mid-request disconnect propagate.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise ProtocolError("connection closed inside the request head")
    except asyncio.LimitOverrunError:
        raise ProtocolError("request head exceeds the line limit")
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError("request head exceeds the size limit")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip() or " " in name:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.lower()] = value.strip()
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError:
            raise ProtocolError(f"bad Content-Length: {raw_length!r}")
        if length < 0:
            raise ProtocolError(f"bad Content-Length: {raw_length!r}")
        if length > max_body:
            raise PayloadTooLarge(length, max_body)
        if length:
            body = await reader.readexactly(length)
    elif headers.get("transfer-encoding"):
        raise ProtocolError("chunked request bodies are not supported")
    return Request(
        method=method.upper(),
        path=split.path or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one HTTP/1.1 response."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(
    status: int, payload, keep_alive: bool = True
) -> bytes:
    """A JSON response body with framing."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return render_response(status, body, keep_alive=keep_alive)


async def write_response(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Send one rendered response, tolerating a dead peer."""
    try:
        writer.write(data)
        await writer.drain()
    except (ConnectionError, RuntimeError):
        pass


# -- trace-upload envelope ----------------------------------------------------


def pack_trace_upload(trace) -> bytes:
    """Encode a sealed :class:`~repro.trace.buffer.TraceRecorder`.

    Layout: ``RTUP`` magic + u32 metadata length, the metadata JSON
    (event count, ops document length, fingerprint), the trace's ops
    document (:func:`repro.store.keys.ops_document`, the bytes its
    fingerprint hashes and its ``trace`` store entry holds), then the
    raw column container exactly as
    :class:`~repro.trace.plane.MmapStorage` lays it out on disk — so
    the server can spool the container portion to a file and attach it
    without any per-event decoding.
    """
    from ..store.keys import ops_document, trace_fingerprint
    from ..trace import plane

    events = trace.events
    offsets, total = plane.column_layout(events)
    container = bytearray(total)
    container[: plane.HEADER_BYTES] = plane.pack_header(events)
    for offset, column in zip(offsets, trace.columns()):
        raw = column.tobytes()
        container[offset : offset + len(raw)] = raw
    document = ops_document(trace)
    meta = {
        "events": events,
        "ops_bytes": len(document),
        "fingerprint": trace_fingerprint(trace, document),
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    return b"".join(
        (
            _UPLOAD_HEADER.pack(UPLOAD_MAGIC, len(meta_bytes)),
            meta_bytes,
            document,
            container,
        )
    )


def unpack_trace_upload(body: bytes) -> tuple[dict, bytes, bytes]:
    """Split an upload body into ``(metadata, ops_document, container)``.

    Raises :class:`ProtocolError` on any framing or declaration
    mismatch — bad magic, truncated metadata or ops document, or a
    container whose byte length disagrees with the declared event
    count.  The ops document is returned undecoded: the caller parses
    it and re-derives the fingerprint from what it parsed.
    """
    from ..trace import plane

    if len(body) < _UPLOAD_HEADER.size:
        raise ProtocolError("trace upload is shorter than its header")
    magic, meta_len = _UPLOAD_HEADER.unpack_from(body)
    if magic != UPLOAD_MAGIC:
        raise ProtocolError("trace upload has a bad magic prefix")
    meta_end = _UPLOAD_HEADER.size + meta_len
    if meta_end > len(body):
        raise ProtocolError("trace upload metadata is truncated")
    try:
        meta = json.loads(body[_UPLOAD_HEADER.size : meta_end])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"trace upload metadata is not JSON: {exc}")
    if not isinstance(meta, dict) or "events" not in meta:
        raise ProtocolError("trace upload metadata lacks an event count")
    try:
        events = int(meta["events"])
        ops_bytes = int(meta.get("ops_bytes", -1))
    except (TypeError, ValueError):
        raise ProtocolError("trace upload counts are not integers")
    if events < 0:
        raise ProtocolError("trace upload event count is negative")
    ops_end = meta_end + ops_bytes
    if ops_bytes < 0 or ops_end > len(body):
        raise ProtocolError("trace upload ops document is missing or truncated")
    container = body[ops_end:]
    _offsets, expected = plane.column_layout(events)
    if len(container) != expected:
        raise ProtocolError(
            f"trace upload container is {len(container):,} bytes; "
            f"{events:,} events require {expected:,}"
        )
    return meta, body[meta_end:ops_end], container
