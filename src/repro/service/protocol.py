"""Wire framing: newline-delimited JSON, plus minimal HTTP sniffing.

One tagged message per line — ``{"type": tag, ...fields}`` as compact JSON
terminated by ``\\n``.  The same TCP port also answers plain HTTP
``GET /metrics`` and ``GET /health`` (for curl and scrapers): the server
sniffs the first line of a connection and, when it looks like an HTTP
request line, answers one minimal HTTP/1.0 response and closes.

The framing is shared by every socket protocol in the project: it is
:meth:`repro.api.MessageRegistry.encode_line` / ``decode_line``, which
:func:`encode_line` / :func:`decode_line` apply to the :mod:`repro.api`
service messages by default — the cluster coordinator/worker protocol of
:mod:`repro.exec.cluster` uses it with its own registry (and a larger line
cap, since batch pushes ship array payloads) without importing the
service.

Everything here is transport-only; message semantics live in
:mod:`repro.api`, :mod:`repro.service.server` and
:mod:`repro.exec.cluster`.
"""

from __future__ import annotations

import json
import zlib
from typing import Any

from repro.api import REGISTRY, MessageRegistry

__all__ = [
    "MAX_LINE_BYTES",
    "encode_line",
    "decode_line",
    "crc_frame",
    "crc_unframe",
    "sniff_http_path",
    "http_response",
]

#: Upper bound on one NDJSON line (guards the reader against hostile input).
MAX_LINE_BYTES = 1 << 20

_HTTP_METHODS = (b"GET ", b"HEAD ", b"POST ")

_HTTP_STATUS = {200: "OK", 404: "Not Found", 503: "Service Unavailable"}


def encode_line(message: object, registry: MessageRegistry = REGISTRY) -> bytes:
    """Serialise one message dataclass to a compact NDJSON line."""
    return registry.encode_line(message)


def decode_line(
    line: bytes,
    registry: MessageRegistry = REGISTRY,
    max_bytes: int = MAX_LINE_BYTES,
) -> object:
    """Parse one NDJSON line back into its message dataclass.

    Raises :class:`repro.api.ProtocolError` on an oversized line and on
    invalid JSON as well as on schema violations, so the server has a single
    failure type to map to an ``ErrorReply``.
    """
    return registry.decode_line(line, max_bytes)


def crc_frame(body: bytes) -> bytes:
    """Frame one record for durable storage: ``crc32-hex SP body LF``.

    The CRC-32 covers exactly ``body``; the newline terminator makes the
    frames greppable NDJSON when the body is JSON.  This is the framing of
    the write-ahead journal and its snapshots
    (:mod:`repro.service.journal`): a crash mid-write leaves either a
    partial line (no ``\\n``) or a line whose checksum no longer matches —
    both detected by :func:`crc_unframe` returning ``None``.
    """
    if b"\n" in body:
        raise ValueError("CRC-framed bodies must not contain newlines")
    return f"{zlib.crc32(body) & 0xFFFFFFFF:08x} ".encode("ascii") + body + b"\n"


def crc_unframe(line: bytes) -> "bytes | None":
    """Validate one :func:`crc_frame` line; the body, or None when torn.

    ``None`` covers every way a record can be damaged: missing newline
    (partial write), malformed prefix, or a CRC mismatch (bit rot, or a
    write torn mid-body).  Callers treat ``None`` at the journal tail as
    the truncation point.
    """
    if not line.endswith(b"\n"):
        return None
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        want = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:-1]
    return body if (zlib.crc32(body) & 0xFFFFFFFF) == want else None


def sniff_http_path(first_line: bytes) -> "str | None":
    """The request path when ``first_line`` is an HTTP request line, else None.

    Only the method prefix and the ``METHOD SP path SP version`` shape are
    checked — enough to route curl/scraper traffic away from the NDJSON
    loop without a real HTTP parser.
    """
    if not first_line.startswith(_HTTP_METHODS):
        return None
    parts = first_line.strip().split()
    if len(parts) != 3 or not parts[2].startswith(b"HTTP/"):
        return None
    try:
        return parts[1].decode("ascii")
    except UnicodeDecodeError:
        return None


def http_response(status: int, body: "dict[str, Any]") -> bytes:
    """One self-contained HTTP/1.0 response with a JSON body."""
    payload = json.dumps(body, indent=2).encode("utf-8") + b"\n"
    reason = _HTTP_STATUS.get(status, "OK")
    head = (
        f"HTTP/1.0 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + payload
