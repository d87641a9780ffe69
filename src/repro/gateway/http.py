"""Minimal asyncio HTTP/1.1 front end for the gateway.

This is deliberately *not* a web framework: one module, stdlib only,
implementing exactly the slice of HTTP/1.1 the gateway needs —

* request parsing with hard caps (request line, header block, body) so a
  hostile peer cannot make the server buffer unbounded input;
* keep-alive and pipelined requests (the parser is a plain sequential
  read loop, so back-to-back requests on one connection just work);
* chunked transfer decoding for request bodies and chunked *encoding*
  for streaming responses (the JSON-lines EDA session endpoint);
* a typed error: any malformed input raises :class:`HttpError` (a
  :class:`~repro.serve.errors.RequestError`), answered with a JSON error
  body and a closed connection — never a hang, never a traceback.

The server is :class:`~repro.gateway.app.HttpGateway`, an
:class:`~repro.serve.aio.EventLoopServer` whose request loop reads with
:func:`read_request` and answers with :func:`write_response`.  Routing,
auth, and backend dispatch live in :mod:`repro.gateway.app` — this module
only turns bytes into :class:`HttpRequest` objects and
:class:`HttpResponse` / :class:`StreamingResponse` objects back into
bytes.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass
from typing import AsyncIterator, Optional, Union
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.serve.errors import RequestError

#: Hard caps on one request's framing.  Oversized input is a 400/413 —
#: the connection is then closed because the stream position can no
#: longer be trusted.
MAX_REQUEST_LINE_BYTES = 8192
MAX_HEADER_BYTES = 65536
MAX_HEADER_COUNT = 100
MAX_BODY_BYTES = 1 << 28  # matches the socket transport's frame cap

#: Blank lines tolerated before a request line (robustness: RFC 9112
#: tells servers to skip at least one stray CRLF between requests).
_MAX_BLANK_LINES = 8

_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
_SUPPORTED_VERSIONS = ("HTTP/1.1", "HTTP/1.0")

STATUS_PHRASES = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(RequestError):
    """A request this server refuses, with the status line to say so.

    ``kind`` is the taxonomy tag carried in the JSON error body —
    ``"request"`` for client mistakes (400/401/403/404/405/413),
    ``"admission"`` for shed load (429), ``"backend"`` for 503.
    """

    def __init__(self, status: int, message: str, *,
                 kind: str = "request", headers: tuple = ()):
        super().__init__(message)
        self.status = int(status)
        self.kind = kind
        self.headers = tuple(headers)


@dataclass
class HttpRequest:
    """One parsed request (headers lower-cased, query strings decoded)."""

    method: str
    target: str
    path: str
    query: dict
    headers: dict
    body: bytes
    version: str

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def json(self) -> object:
        """The body decoded as JSON (:class:`HttpError` 400 on garbage)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise HttpError(
                400, f"request body is not valid JSON: {error}"
            ) from error


@dataclass
class HttpResponse:
    """A buffered JSON response.

    ``payload`` is JSON-encoded when set; ``body`` carries pre-encoded
    JSON bytes instead (the response cache serves the exact bytes it
    validated with an ``ETag``, skipping re-serialization on every hit).
    Setting both is a programming error; ``body`` wins.
    """

    status: int = 200
    payload: Optional[object] = None
    headers: tuple = ()
    body: Optional[bytes] = None

    def encode(self, keep_alive: bool) -> bytes:
        body = (self.body if self.body is not None
                else b"" if self.payload is None
                else json.dumps(self.payload).encode("utf-8"))
        head = [_status_line(self.status),
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        head.extend(f"{name}: {value}" for name, value in self.headers)
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


@dataclass
class StreamingResponse:
    """A chunked JSON-lines response: ``lines`` yields JSON-able objects,
    each written (and flushed) as its own chunk the moment it is ready."""

    lines: AsyncIterator
    status: int = 200
    headers: tuple = ()

    async def aclose(self) -> None:
        closer = getattr(self.lines, "aclose", None)
        if closer is not None:
            await closer()


def _status_line(status: int) -> str:
    phrase = STATUS_PHRASES.get(status, "Status")
    return f"HTTP/1.1 {status} {phrase}"


def error_response(error: HttpError) -> HttpResponse:
    """The JSON reply body for one :class:`HttpError`."""
    return HttpResponse(
        status=error.status,
        payload={"ok": False, "kind": error.kind, "error": str(error)},
        headers=error.headers,
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

async def _read_line(reader: asyncio.StreamReader, cap: int,
                     *, at_boundary: bool = False) -> Optional[str]:
    """One CRLF-terminated line, decoded latin-1, stripped of its ending.

    ``None`` on a clean EOF at a request boundary; :class:`HttpError` 400
    on a mid-line EOF, a missing terminator within the stream limit, or a
    line longer than ``cap``.
    """
    try:
        raw = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if at_boundary and not error.partial:
            return None
        raise HttpError(400, "truncated request") from error
    except asyncio.LimitOverrunError as error:
        raise HttpError(400, "header line too long") from error
    if len(raw) > cap:
        raise HttpError(400, f"header line exceeds {cap} bytes")
    return raw.decode("latin-1").rstrip("\r\n")


async def _read_chunked(reader: asyncio.StreamReader) -> bytes:
    """Decode a ``Transfer-Encoding: chunked`` request body (with caps)."""
    body = bytearray()
    while True:
        line = await _read_line(reader, 1024)
        size_text = (line or "").split(";", 1)[0].strip()
        try:
            size = int(size_text, 16)
        except ValueError as error:
            raise HttpError(
                400, f"bad chunk size {size_text!r}"
            ) from error
        if size < 0:
            raise HttpError(400, f"negative chunk size {size_text!r}")
        if len(body) + size > MAX_BODY_BYTES:
            raise HttpError(
                413, f"chunked body exceeds {MAX_BODY_BYTES} bytes"
            )
        if size == 0:
            while True:  # drain optional trailers up to the blank line
                trailer = await _read_line(reader, MAX_HEADER_BYTES)
                if not trailer:
                    return bytes(body)
        try:
            chunk = await reader.readexactly(size)
            terminator = await reader.readexactly(2)
        except asyncio.IncompleteReadError as error:
            raise HttpError(400, "truncated chunked body") from error
        if terminator != b"\r\n":
            raise HttpError(400, "chunk data not CRLF-terminated")
        body += chunk


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[HttpRequest]:
    """Parse one request off ``reader``.

    ``None`` on a clean EOF between requests (the client hung up);
    :class:`HttpError` on anything malformed — the caller replies with
    its status and closes, because after a framing error the stream
    position is untrustworthy.
    """
    line = await _read_line(reader, MAX_REQUEST_LINE_BYTES,
                            at_boundary=True)
    for _ in range(_MAX_BLANK_LINES):
        if line != "":
            break
        line = await _read_line(reader, MAX_REQUEST_LINE_BYTES,
                                at_boundary=True)
    if line is None:
        return None
    parts = line.split(" ")
    if len(parts) != 3 or not all(parts):
        raise HttpError(400, f"malformed request line {line!r}")
    method, target, version = parts
    if not _TOKEN.fullmatch(method):
        raise HttpError(400, f"malformed method {method!r}")
    if version not in _SUPPORTED_VERSIONS:
        raise HttpError(400, f"unsupported protocol version {version!r}")

    headers: dict = {}
    total = 0
    while True:
        header_line = await _read_line(reader, MAX_HEADER_BYTES)
        if not header_line:
            break
        total += len(header_line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(
                400, f"header block exceeds {MAX_HEADER_BYTES} bytes"
            )
        if len(headers) >= MAX_HEADER_COUNT:
            raise HttpError(
                400, f"more than {MAX_HEADER_COUNT} headers"
            )
        name, sep, value = header_line.partition(":")
        if not sep or not _TOKEN.fullmatch(name):
            raise HttpError(400, f"malformed header line {header_line!r}")
        headers[name.lower()] = value.strip()

    transfer_encoding = headers.get("transfer-encoding")
    if transfer_encoding is not None:
        if transfer_encoding.lower() != "chunked":
            raise HttpError(
                400,
                f"unsupported transfer-encoding {transfer_encoding!r}",
            )
        if "content-length" in headers:
            raise HttpError(
                400, "both content-length and transfer-encoding present"
            )
        body = await _read_chunked(reader)
    elif "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as error:
            raise HttpError(
                400,
                f"bad content-length {headers['content-length']!r}",
            ) from error
        if length < 0:
            raise HttpError(400, f"negative content-length {length}")
        if length > MAX_BODY_BYTES:
            raise HttpError(
                413, f"declared body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte cap"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise HttpError(400, "truncated request body") from error
    else:
        body = b""

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return HttpRequest(
        method=method,
        target=target,
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
        version=version,
    )


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

async def write_response(writer: asyncio.StreamWriter,
                         response: Union[HttpResponse, StreamingResponse],
                         keep_alive: bool) -> None:
    """Write one response: a buffered body at once, a streaming one as
    a chunk per line, each flushed the moment it is computed."""
    if isinstance(response, StreamingResponse):
        head = [_status_line(response.status),
                "Content-Type: application/x-ndjson",
                "Transfer-Encoding: chunked",
                f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        head.extend(f"{name}: {value}" for name, value in response.headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()
        try:
            async for item in response.lines:
                data = json.dumps(item).encode("utf-8") + b"\n"
                writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
                # Flush per line: each step reaches the client the moment
                # it is computed, and a vanished client raises here,
                # stopping the generator before the next step.
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            await response.aclose()
    else:
        writer.write(response.encode(keep_alive))
        await writer.drain()
