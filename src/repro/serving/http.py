"""A minimal stdlib HTTP/1.1 surface over :class:`NKAService`.

Endpoints (JSON in, JSON out, ``Connection: close`` per request):

* ``GET /healthz`` — liveness: ``{"ok": true}`` while accepting traffic,
  503 once draining.
* ``GET /stats`` — the service's full :meth:`~NKAService.stats` document
  (serving metrics per tenant with each engine's ``stats()`` nested in).
* ``POST /equal`` — body ``{"tenant": ..., "left": ..., "right": ...}``
  with expressions in the surface syntax of :func:`repro.parse`; answers
  ``{"equal": ..., "counterexample": ..., "reason": ...}``.
* ``POST /equal_batch`` — body ``{"tenant": ..., "pairs": [[l, r], ...]}``;
  answers ``{"results": [...]}`` in request order.

Admission failures map to their :class:`~repro.serving.service.ServingError`
status (404 unknown tenant, 429 quota, 503 draining); malformed requests
are 400, oversized ones 413.  The request head is bounded (64 KiB, 64
header lines) and so is the body (``0 ≤ Content-Length ≤ 1 MiB``); every
request that breaks a bound, is cut short or is not HTTP gets a JSON error
answer.

Each connection is one :class:`asyncio.Protocol` that buffers bytes until
the head and body are complete, runs :meth:`ServingHTTPServer._route` in
one task, writes the answer and closes — no streams, no web framework
(the container has none and the protocol surface is four routes).  This
is a reference front door and a load-test target, not a hardened edge
proxy: put a real terminator in front for TLS, auth and slow-loris
hygiene.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Any, Dict, Optional, Tuple

from repro.automata.equivalence import EquivalenceResult
from repro.serving.service import NKAService, ServingError

__all__ = ["ServingHTTPServer"]

_MAX_HEAD_BYTES = 64 << 10
_MAX_HEADER_LINES = 64
_MAX_BODY_BYTES = 1 << 20  # a parse-able expression fits in far less
_HEAD_END = re.compile(rb"\r?\n\r?\n")
# How long a refused connection keeps reading (and dropping) the rest of
# its request before it is closed without waiting for the client.
_LINGER_SECONDS = 2.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _result_payload(result: EquivalenceResult) -> Dict[str, Any]:
    return {
        "equal": result.equal,
        "counterexample": (
            None
            if result.counterexample is None
            else list(result.counterexample)
        ),
        "reason": result.reason,
    }


def _encode(status: int, payload: Dict[str, Any]) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("latin-1")
    return head + body


class _BadRequest(Exception):
    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _parse_head(head: bytes) -> Tuple[str, str, int]:
    """``(method, path, content_length)`` of a complete request head."""
    lines = head.decode("latin-1").split("\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line: {lines[0].strip()!r}")
    method, path, _version = parts
    if len(lines) - 1 > _MAX_HEADER_LINES:
        raise _BadRequest("too many headers")
    content_length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            value = value.strip()
            if not (value.isascii() and value.isdigit()):
                raise _BadRequest("invalid Content-Length")
            try:
                content_length = int(value)
            except ValueError:  # more digits than int() converts
                raise _BadRequest("invalid Content-Length")
    if content_length > _MAX_BODY_BYTES:
        raise _BadRequest("request body too large", status=413)
    return method, path, content_length


class _Connection(asyncio.Protocol):
    """One request on one connection: buffer, route once, answer, close."""

    def __init__(self, server: "ServingHTTPServer"):
        self._server = server
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._scanned = 0  # bytes searched for the end of the head so far
        # (method, path, body offset, content length) once the head is in.
        self._request: Optional[Tuple[str, str, int, int]] = None
        self._answered = False  # routed or refused: later bytes are dropped
        self._task: Optional[asyncio.Task] = None  # the loop holds it weakly
        self._linger: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        if self._answered:
            return
        self._buffer += data
        try:
            if self._request is None:
                match = _HEAD_END.search(self._buffer, max(0, self._scanned - 3))
                if match is None or match.start() > _MAX_HEAD_BYTES:
                    self._scanned = len(self._buffer)
                    if self._scanned > _MAX_HEAD_BYTES:
                        raise _BadRequest("request head too large", status=413)
                    return
                method, path, length = _parse_head(
                    bytes(self._buffer[: match.start()])
                )
                self._request = (method, path, match.end(), length)
        except _BadRequest as error:
            self._refuse(error)
            return
        method, path, start, length = self._request
        if len(self._buffer) - start < length:
            return
        self._answered = True
        body = bytes(self._buffer[start : start + length])
        self._task = asyncio.get_running_loop().create_task(
            self._serve(method, path, body)
        )

    def eof_received(self) -> bool:
        if not self._answered:
            self._refuse(_BadRequest("incomplete request"))
        if self._linger is not None:  # refused: the client is done too
            self._transport.close()
        return True  # keep the write side open for an answer in flight

    def connection_lost(self, exc) -> None:
        if self._linger is not None:
            self._linger.cancel()

    async def _serve(self, method: str, path: str, body: bytes) -> None:
        try:
            status, payload = await self._server._route(method, path, body)
        except (ServingError, _BadRequest) as error:
            status, payload = error.status, {"error": str(error)}
        except Exception as error:  # route bug: answer, don't hang
            status, payload = 500, {"error": repr(error)}
        transport = self._transport
        if not transport.is_closing():  # else the client went away
            transport.write(_encode(status, payload))
            transport.close()

    def _refuse(self, error: _BadRequest) -> None:
        """Answer a request that will not be routed.  Its unread bytes
        would make ``close()`` reset the connection, which can destroy the
        answer before the client reads it; so stop sending, drop what
        still arrives, and close once the client does (or on a timer)."""
        self._answered = True
        transport = self._transport
        transport.write(_encode(error.status, {"error": str(error)}))
        transport.write_eof()
        self._linger = asyncio.get_running_loop().call_later(
            _LINGER_SECONDS, transport.close
        )


class ServingHTTPServer:
    """Serve an :class:`NKAService` over HTTP on ``host:port``.

    ``port=0`` (the default) binds an ephemeral port, published as
    ``self.port`` after :meth:`start` — what the tests and the load
    harness use.  The server does not own the service: closing the server
    stops accepting connections, the service drains separately.
    """

    def __init__(
        self, service: NKAService, host: str = "127.0.0.1", port: int = 0
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional["asyncio.AbstractServer"] = None

    async def start(self) -> "ServingHTTPServer":
        if self._server is not None:
            return self
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "ServingHTTPServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()

    # -- routing -------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            if method != "GET":
                raise _BadRequest("use GET", status=405)
            if self.service._closed:
                return 503, {"ok": False, "draining": True}
            return 200, {"ok": True}
        if path == "/stats":
            if method != "GET":
                raise _BadRequest("use GET", status=405)
            return 200, self.service.stats()
        if path == "/equal":
            if method != "POST":
                raise _BadRequest("use POST", status=405)
            document = self._json_body(body)
            tenant = self._field(document, "tenant", str)
            left = self._parse_expr(self._field(document, "left"))
            right = self._parse_expr(self._field(document, "right"))
            result = await self.service.equal_detailed(tenant, left, right)
            return 200, _result_payload(result)
        if path == "/equal_batch":
            if method != "POST":
                raise _BadRequest("use POST", status=405)
            document = self._json_body(body)
            tenant = self._field(document, "tenant", str)
            raw_pairs = self._field(document, "pairs", list)
            pairs = []
            for entry in raw_pairs:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise _BadRequest("each pair must be [left, right]")
                pairs.append(
                    (self._parse_expr(entry[0]), self._parse_expr(entry[1]))
                )
            results = await self.service.equal_many_detailed(tenant, pairs)
            return 200, {"results": [_result_payload(r) for r in results]}
        raise _BadRequest(f"no such route: {path}", status=404)

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, Any]:
        try:
            document = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError, RecursionError) as error:
            raise _BadRequest(f"invalid JSON body: {error}")
        if not isinstance(document, dict):
            raise _BadRequest("body must be a JSON object")
        return document

    @staticmethod
    def _field(document: Dict[str, Any], name: str, kind: type = object) -> Any:
        try:
            value = document[name]
        except KeyError:
            raise _BadRequest(f"missing field {name!r}")
        if not isinstance(value, kind):
            raise _BadRequest(f"field {name!r} must be a {kind.__name__}")
        return value

    @staticmethod
    def _parse_expr(source: Any):
        from repro import parse

        if not isinstance(source, str):
            raise _BadRequest("expressions must be strings")
        try:
            return parse(source)
        except Exception as error:
            raise _BadRequest(f"unparseable expression {source!r}: {error}")
