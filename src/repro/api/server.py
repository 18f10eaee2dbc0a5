"""The advisor HTTP server: the wire protocol over a small HTTP/1.1 framer.

:class:`AdvisorHTTPServer` wraps one
:class:`~repro.service.AdvisorService` behind a threaded
:mod:`socketserver` TCP server — one thread per connection, which matches
the service layer's design: sessions are lock-protected and every session
engine shares the table runtime's caches, so concurrent requests batch and
reuse work exactly as the in-process multi-user path does.

The HTTP/1.1 framing is this module's own (:func:`read_head`, which
:class:`~repro.api.client.RemoteAdvisor` reads its replies with too): a
request line, header fields up to a limit, then exactly ``Content-Length``
body bytes.  A serving process does not load the standard library's HTTP
stack, and with it neither ``email`` (its header parser) nor ``ssl``.

Connections are HTTP/1.1 keep-alive: a handler thread serves one
connection, request after request, until the peer closes it or asks to
(``Connection: close``, or HTTP/1.0 without ``keep-alive``), a read
stalls for :data:`SOCKET_TIMEOUT_SECONDS` (idle, silent or half-sent —
the thread is given back quietly), a transport-level error reply
(status >= 400) ends it, or the server shuts down — ``shutdown()`` closes
every open connection, so a stopped server answers nobody.  Each reply
leaves as one write with Nagle's algorithm off, which is what makes
keep-alive usable at all (``docs/api.md``, "Connections").

Endpoints:

* ``POST /v1/rpc`` — one request envelope in, one response envelope out
  (see :mod:`repro.api.protocol`).  Operation failures are *successful*
  HTTP exchanges (status 200) carrying an error envelope; HTTP error
  statuses are reserved for transport problems (bad JSON or framing →
  400, wrong path → 404, any method but GET and POST → 405, no
  ``Content-Length`` → 411, an oversized head → 414/431), and every one
  of those replies is an error envelope too.
* ``GET /v1/health`` — liveness probe with version, node identity
  (``node_id``, pid, start time) and per-table ``data_version``, so a
  cluster router can detect a stale replica from one cheap GET.
* ``GET /v1/stats`` — the service-wide statistics document.

The handler itself is transport plumbing only: it reads a
:class:`HTTPFront` — anything with ``handle_rpc`` and ``get_document`` —
which is how the cluster router's front door
(:class:`repro.cluster.router.RouterHTTPServer`) serves the same protocol
over the same handler without duplicating it.

Usage::

    with AdvisorHTTPServer(service, port=0) as server:   # 0 = ephemeral
        advisor = RemoteAdvisor(server.url)
        ...

or blocking, as the CLI's ``serve --http`` does::

    AdvisorHTTPServer(service, port=8765).serve_forever()
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from typing import TYPE_CHECKING, Any, BinaryIO, Dict, Optional, Protocol, Set, Tuple, Type

from repro.api.codec import SCHEMA_VERSION, to_wire
from repro.api.dispatcher import Dispatcher
from repro.api.protocol import API_VERSION, OPERATIONS

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.obs.metrics import MetricsRegistry
    from repro.service.service import AdvisorService

__all__ = ["AdvisorHTTPServer", "HTTPFrontServer"]

#: Maximum accepted request body, a guard against runaway clients.
_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Seconds a handler thread waits on its socket — for the next request of
#: a keep-alive connection, or for the rest of a half-sent one — before it
#: closes the connection and ends.  Read when a server is constructed.
SOCKET_TIMEOUT_SECONDS = 30.0


class HTTPFront(Protocol):
    """What the HTTP handler needs from the server behind it."""

    def handle_rpc(self, payload: Any) -> Dict[str, Any]:
        """Execute one JSON-safe request envelope; never raises."""
        ...  # pragma: no cover - protocol declaration

    def get_document(self, path: str) -> Optional[Dict[str, Any]]:
        """The JSON document served at a GET path, or ``None`` for 404."""
        ...  # pragma: no cover - protocol declaration

    def get_plain(self, path: str) -> Optional[str]:
        """The ``text/plain`` body served at a GET path, or ``None``.

        Checked before :meth:`get_document` — this is how
        ``GET /v1/metrics`` serves Prometheus text exposition while every
        other endpoint stays JSON.
        """
        ...  # pragma: no cover - protocol declaration


#: Longest request, status or header line, and most header lines, read.
_MAX_LINE = 64 * 1024
_MAX_HEADERS = 100


class FramingError(ConnectionError):
    """A malformed or oversized message head; ``status`` is a server's reply to it."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def read_head(stream: BinaryIO) -> Tuple[str, Dict[str, str]]:
    """Read one start line and its header fields, up to the blank line.

    Returns ``("", {})`` when the stream ends (or a second blank line
    comes) before a start line.  Field names are lower-cased; a repeated
    field's values are joined with ``", "`` (RFC 9110 §5.3), so a doubled
    ``Content-Length`` is no longer a number.  A stream that ends inside
    the head is a :class:`ConnectionError`.
    """
    line = stream.readline(_MAX_LINE + 1)
    if line in (b"\r\n", b"\n"):  # RFC 9112 §2.2: one blank line before a start line
        line = stream.readline(_MAX_LINE + 1)
    if not line.strip():
        return "", {}
    if len(line) > _MAX_LINE:
        raise FramingError(414, f"start line exceeds {_MAX_LINE} bytes")
    start = line.decode("latin-1").strip()
    fields: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = stream.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise FramingError(431, f"header line exceeds {_MAX_LINE} bytes")
        if line in (b"\r\n", b"\n"):
            return start, fields
        if not line:
            raise ConnectionError("the stream ended inside a message head")
        name, colon, value = line.decode("latin-1").partition(":")
        # No colon, or whitespace around the name (a folded line).
        if not colon or not name or name != name.strip():
            raise FramingError(400, f"malformed header line {line[:80]!r}")
        name, value = name.lower(), value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise FramingError(431, f"more than {_MAX_HEADERS} header lines")


class _Handler(socketserver.StreamRequestHandler):
    """One connection, request after request; the front does all protocol work."""

    # Set by the server factory below.
    front: HTTPFront = None  # type: ignore[assignment]

    # Each reply is one write of status line, headers and body, so it is
    # not held back by Nagle's algorithm waiting on the keep-alive peer's
    # delayed ACK.
    disable_nagle_algorithm = True

    requestline = ""  # logged by a reply to a head that did not parse

    # -- framing -------------------------------------------------------------

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self.handle_one_request()
        except OSError:
            # A stalled peer (SOCKET_TIMEOUT_SECONDS), one that vanished
            # mid-exchange, or a connection closed by close_connections:
            # the thread is given back quietly.
            pass

    def handle_one_request(self) -> None:
        self.close_connection = True  # until the request asks for keep-alive
        try:
            self.requestline, self.headers = read_head(self.rfile)
        except FramingError as exc:
            self._error(exc.status, "protocol", str(exc))
            return
        if not self.requestline:
            return  # the peer closed the connection between requests
        words = self.requestline.split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            self._error(400, "protocol", f"malformed request line {self.requestline[:80]!r}")
            return
        method, self.path, self.request_version = words
        if self.request_version not in ("HTTP/1.0", "HTTP/1.1"):
            self._error(505, "protocol", f"{self.request_version} is not served; use HTTP/1.1")
            return
        connection = self.headers.get("connection", "").lower()
        if self.request_version == "HTTP/1.1":
            self.close_connection = "close" in connection
        else:
            self.close_connection = "keep-alive" not in connection
        if "transfer-encoding" in self.headers:
            self._error(
                411, "protocol", "chunked request bodies are not read; send Content-Length"
            )
        elif method == "POST":
            self.do_POST()
        elif method == "GET":
            if self.headers.get("content-length", "0") != "0":
                self.close_connection = True  # a GET's body is never read
            self.do_GET()
        else:
            self._error(405, "protocol", "method not allowed; POST /v1/rpc or GET /v1/health")

    # -- plumbing ------------------------------------------------------------

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.server.count_request()  # type: ignore[attr-defined]
        if status >= 400:
            # A rejected request may have left its body unread; the next
            # request on this connection would be parsed out of it.
            self.close_connection = True
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Date: {time.strftime('%a, %d %b %Y %H:%M:%S GMT', time.gmtime())}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        elif self.request_version == "HTTP/1.0":
            head += "Connection: keep-alive\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, ensure_ascii=False, sort_keys=True).encode("utf-8")
        self._send(status, "application/json; charset=utf-8", body)

    def _error(self, status: int, code: str, message: str) -> None:
        self._send_json(
            status,
            {
                "api_version": API_VERSION,
                "schema": SCHEMA_VERSION,
                "ok": False,
                "error": {"code": code, "message": message},
            },
        )

    def _log_failure(
        self, kind: str, path: str, exc: BaseException, payload: Any = None
    ) -> None:
        """One structured stderr line per unexpected 500.

        Carries the request's op, request_id and — when the envelope asked
        for tracing — its trace_id, so a 500 in a log aggregator joins up
        with the client-side trace instead of vanishing into a generic
        error envelope.  ``traceback`` (and the ``linecache``/``tokenize``
        it imports) loads at the first 500, not in every serving process.
        """
        import traceback

        record: Dict[str, Any] = {
            "event": "http_internal_error",
            "time": time.time(),
            "kind": kind,
            "path": path,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
        if isinstance(payload, dict):
            record["op"] = payload.get("op")
            record["request_id"] = payload.get("request_id")
            trace = payload.get("trace")
            if isinstance(trace, dict):
                record["trace_id"] = trace.get("trace_id")
        print(
            json.dumps(record, ensure_ascii=False, sort_keys=True),
            file=sys.stderr,
            flush=True,
        )

    # -- endpoints -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - named after the method it serves
        path = self.path.split("?", 1)[0]
        try:
            text = self.front.get_plain(path)
            if text is not None:
                self._send(
                    200, "text/plain; version=0.0.4; charset=utf-8", text.encode("utf-8")
                )
                return
            document = self.front.get_document(path)
        except Exception as exc:
            self._log_failure("get", path, exc)
            self._error(500, "internal", "internal server error; see server log")
            return
        if document is not None:
            self._send_json(200, document)
            return
        self._error(
            404, "protocol", f"unknown path {path!r}; try /v1/rpc, /v1/health, /v1/stats"
        )

    def do_POST(self) -> None:  # noqa: N802 - named after the method it serves
        path = self.path.split("?", 1)[0]
        if path != "/v1/rpc":
            self._error(404, "protocol", f"unknown path {path!r}; POST to /v1/rpc")
            return
        field = self.headers.get("content-length")
        if field is None:
            self._error(411, "protocol", "POST a request envelope with a Content-Length header")
            return
        if not (field.isascii() and field.isdigit()):
            self._error(400, "protocol", "malformed Content-Length header")
            return
        length = int(field)
        if length == 0:
            self._error(400, "protocol", "empty request body; POST a request envelope")
            return
        if length > _MAX_BODY_BYTES:
            self._error(400, "protocol", f"request body exceeds {_MAX_BODY_BYTES} bytes")
            return
        if self.headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")  # the body may follow now
        body = self.rfile.read(length)
        if len(body) < length:
            self.close_connection = True  # the peer closed inside the body
            return
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError) as exc:  # nested past the parser's stack
            self._error(400, "protocol_wire_format", f"request body is not valid JSON: {exc}")
            return
        try:
            reply = self.front.handle_rpc(payload)
        except Exception as exc:
            # handle_rpc contracts to never raise — anything landing here
            # is a genuine server bug, worth a structured log line with
            # the request's trace context before the generic 500.
            self._log_failure("rpc", path, exc, payload=payload)
            self._error(500, "internal", "internal server error; see server log")
            return
        self._send_json(200, reply)


class _TrackingServer(socketserver.ThreadingTCPServer):
    """A threaded TCP server, plus a record of its open connections.

    ``socketserver`` forgets a connection once its handler thread has
    started, so ``shutdown()`` alone leaves every keep-alive connection
    being served.  This keeps the accepted sockets until their threads
    release them, which lets :meth:`close_connections` end them all, and
    counts connections and requests for ``/v1/metrics``.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], handler: Type[_Handler]) -> None:
        self._lock = threading.Lock()
        self._open: Set[socket.socket] = set()
        #: Connections accepted and requests answered so far.
        self.accepted = 0
        self.requests = 0
        super().__init__(address, handler)

    def get_request(self) -> Tuple[socket.socket, Any]:
        connection, address = super().get_request()
        with self._lock:
            self._open.add(connection)
            self.accepted += 1
        return connection, address

    def shutdown_request(self, request: Any) -> None:
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def count_request(self) -> None:
        with self._lock:
            self.requests += 1

    def close_connections(self) -> None:
        """End every open connection; their handler threads then exit."""
        with self._lock:
            connections = list(self._open)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler or its peer


class HTTPFrontServer:
    """A threaded HTTP server bound to one :class:`HTTPFront`.

    Owns the socket lifecycle (ephemeral ports, background serving,
    shutdown, context management); subclasses implement the protocol
    surface — :meth:`handle_rpc` and :meth:`get_document`.  Both the
    single-node :class:`AdvisorHTTPServer` and the cluster router's
    front door are instances.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        handler = type(
            "_BoundHandler", (_Handler,), {"front": self, "timeout": SOCKET_TIMEOUT_SECONDS}
        )
        self._httpd = _TrackingServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    # -- the front surface ---------------------------------------------------

    def handle_rpc(self, payload: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def get_document(self, path: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def get_plain(self, path: str) -> Optional[str]:
        """Plain-text GET surface; fronts without one serve JSON only."""
        return None

    # -- socket lifecycle ----------------------------------------------------

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        """The bound TCP port (the actual one when constructed with 0)."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL clients should connect to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HTTPFrontServer":
        """Serve on a background daemon thread and return immediately."""
        if self._thread is not None:
            raise RuntimeError("the server is already running")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"{type(self).__name__}:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop serving, release the port and close every open connection."""
        if self._thread is not None:
            # socketserver's shutdown() blocks forever unless a
            # serve_forever loop is actually running.
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        # Only the accept loop has stopped: a handler thread parked on a
        # keep-alive connection would go on answering.
        self._httpd.close_connections()

    def export_http_metrics(self, registry: "MetricsRegistry", front: str) -> None:
        """Register this front's connection and request counters as views.

        Their ratio is the connection reuse rate: near 1 means every
        request opened its own connection.  ``front`` labels the rows, so
        a router's own traffic stays apart from its nodes' when merged.
        """
        for name, help_text, read in (
            (
                "http_connections_accepted_total",
                "TCP connections accepted by the HTTP front.",
                lambda: self._httpd.accepted,
            ),
            (
                "http_requests_total",
                "HTTP requests answered by the HTTP front.",
                lambda: self._httpd.requests,
            ),
        ):
            registry.counter(name, help_text, labels={"front": front}, fn=read)

    def __enter__(self) -> "HTTPFrontServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(url={self.url!r})"


class AdvisorHTTPServer(HTTPFrontServer):
    """One advisor service listening on a TCP port.

    Parameters
    ----------
    service:
        The :class:`~repro.service.AdvisorService` to expose.
    host:
        Bind address; loopback by default (this is a prototype server —
        there is no authentication).
    port:
        TCP port; ``0`` picks an ephemeral free port (see :attr:`port`).
    node_id:
        Identity reported in ``/v1/health`` — the cluster supervisor
        names its nodes so the router's probes can tell them apart.
        Defaults to ``"pid:<pid>"`` for standalone servers.
    """

    def __init__(
        self,
        service: "AdvisorService",
        host: str = "127.0.0.1",
        port: int = 0,
        node_id: Optional[str] = None,
    ) -> None:
        self.dispatcher = Dispatcher(service)
        self.node_id = node_id if node_id is not None else f"pid:{os.getpid()}"
        self.started_at = time.time()
        super().__init__(host=host, port=port)
        self.export_http_metrics(service.metrics, front="node")

    @property
    def service(self) -> "AdvisorService":
        return self.dispatcher.service

    # -- the front surface ---------------------------------------------------

    def handle_rpc(self, payload: Any) -> Dict[str, Any]:
        return self.dispatcher.handle_wire(payload)

    def get_document(self, path: str) -> Optional[Dict[str, Any]]:
        if path == "/v1/health":
            return self.health_document()
        if path == "/v1/stats":
            return {
                "api_version": API_VERSION,
                "schema": SCHEMA_VERSION,
                "stats": to_wire(self.service.stats()),
            }
        if path == "/v1/metrics.json":
            # The mergeable document form — what the cluster router
            # scrapes from each node before merging sketches.
            return {
                "api_version": API_VERSION,
                "schema": SCHEMA_VERSION,
                "metrics": self.service.metrics_document(),
            }
        return None

    def get_plain(self, path: str) -> Optional[str]:
        if path == "/v1/metrics":
            return self.service.metrics.render_prometheus()
        return None

    def health_document(self) -> Dict[str, Any]:
        """The liveness document, including node identity and data versions.

        ``node`` identifies this server process (``node_id``, pid, start
        time) and ``data_versions`` maps every registered table to its
        current monotonic data version — together they let a router
        health probe detect a restarted process or a stale replica
        without touching the RPC surface.
        """
        service = self.service
        return {
            "status": "ok",
            "api_version": API_VERSION,
            "schema": SCHEMA_VERSION,
            "operations": sorted(OPERATIONS),
            "tables": service.table_names,
            "sessions": len(service.session_names),
            "node": {
                "node_id": self.node_id,
                "pid": os.getpid(),
                "started_at": self.started_at,
            },
            "data_versions": service.data_versions(),
        }
