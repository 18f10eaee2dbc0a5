"""The advisor HTTP server: the wire protocol over stdlib HTTP.

:class:`AdvisorHTTPServer` wraps one
:class:`~repro.service.AdvisorService` behind a
:class:`http.server.ThreadingHTTPServer` — standard library only, one
thread per connection, which matches the service layer's design: sessions
are lock-protected and every session engine shares the table runtime's
caches, so concurrent requests batch and reuse work exactly as the
in-process multi-user path does.

Connections are HTTP/1.1 keep-alive: a handler thread serves one
connection, request after request, until the peer closes it, a read
stalls for :data:`SOCKET_TIMEOUT_SECONDS` (idle, silent or half-sent —
the thread is given back quietly), a transport-level error reply
(status >= 400) ends it, or the server shuts down — ``shutdown()`` closes
every open connection, so a stopped server answers nobody.  Each reply
leaves as one buffered write with Nagle's algorithm off, which is what
makes keep-alive usable at all (``docs/api.md``, "Connections").

Endpoints:

* ``POST /v1/rpc`` — one request envelope in, one response envelope out
  (see :mod:`repro.api.protocol`).  Operation failures are *successful*
  HTTP exchanges (status 200) carrying an error envelope; HTTP error
  statuses are reserved for transport problems (bad JSON → 400, wrong
  path → 404, wrong method → 405).
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
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict, Optional, Protocol, Set, Tuple, Type

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


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange; the front does all protocol work."""

    # Set by the server factory below.
    front: HTTPFront = None  # type: ignore[assignment]
    quiet: bool = True

    protocol_version = "HTTP/1.1"
    # Status line, headers and body leave in one segment: buffered until
    # handle_one_request flushes, and not held back by Nagle's algorithm
    # waiting on the keep-alive peer's delayed ACK.
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.server.count_request()  # type: ignore[attr-defined]
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # A rejected request may have left its body unread; the next
            # request on this connection would be parsed out of it.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

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
        error envelope.
        """
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

    def do_GET(self) -> None:  # noqa: N802 - http.server API
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

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path != "/v1/rpc":
            self._error(404, "protocol", f"unknown path {path!r}; POST to /v1/rpc")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "protocol", "malformed Content-Length header")
            return
        if length <= 0:
            self._error(400, "protocol", "empty request body; POST a request envelope")
            return
        if length > _MAX_BODY_BYTES:
            self._error(400, "protocol", f"request body exceeds {_MAX_BODY_BYTES} bytes")
            return
        body = self.rfile.read(length)
        try:
            payload = json.loads(body)
        except ValueError as exc:
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

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._error(405, "protocol", "method not allowed; POST /v1/rpc or GET /v1/health")

    do_DELETE = do_PUT


class _TrackingHTTPServer(ThreadingHTTPServer):
    """The stdlib threaded server, plus a record of its open connections.

    ``socketserver`` forgets a connection once its handler thread has
    started, so ``shutdown()`` alone leaves every keep-alive connection
    being served.  This keeps the accepted sockets until their threads
    release them, which lets :meth:`close_connections` end them all, and
    counts connections and requests for ``/v1/metrics``.
    """

    daemon_threads = True

    def __init__(
        self, address: Tuple[str, int], handler: Type[BaseHTTPRequestHandler]
    ) -> None:
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

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A peer that vanishes mid-exchange (or a connection closed under
        # its handler by close_connections) is not a server failure.
        if not isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            super().handle_error(request, client_address)

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

    def __init__(self, host: str = "127.0.0.1", port: int = 0, quiet: bool = True) -> None:
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {"front": self, "quiet": quiet, "timeout": SOCKET_TIMEOUT_SECONDS},
        )
        self._httpd = _TrackingHTTPServer((host, port), handler)
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
    quiet:
        Suppress per-request logging to stderr (default).
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
        quiet: bool = True,
        node_id: Optional[str] = None,
    ) -> None:
        self.dispatcher = Dispatcher(service)
        self.node_id = node_id if node_id is not None else f"pid:{os.getpid()}"
        self.started_at = time.time()
        super().__init__(host=host, port=port, quiet=quiet)
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
