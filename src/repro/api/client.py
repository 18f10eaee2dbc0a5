"""RemoteAdvisor: the advisor service as seen from across the network.

The client half of the front-end/back-end split: a
:class:`RemoteAdvisor` speaks the versioned JSON protocol of
:mod:`repro.api.protocol` over HTTP/1.1 and hands
out :class:`RemoteSession` objects exposing the **same surface** as the
in-process :class:`~repro.service.ServiceSession` —
``advise`` / ``drill`` / ``back`` / ``breadcrumbs`` / ``describe`` /
``stats`` — so an exploration script written against a local
``AdvisorService`` runs unmodified against a remote server.  Results
decode back into the real domain objects (:class:`~repro.core.advisor.Advice`,
:class:`~repro.sdl.segmentation.Segmentation`, ...), and server-side
failures re-raise as the matching :class:`~repro.errors.CharlesError`
subclass, resolved through the stable wire error codes.

Connections are persistent: a :class:`RemoteAdvisor` keeps a small stack
of idle keep-alive connections, takes one per request (or opens one) and
puts it back once the reply is fully read, so a conversation costs one
TCP connection and threads sharing a client never share a socket.
Delivery stays **at most once** per attempt: an idle connection is
checked *before* the request is written and silently replaced when the
server has closed it, but nothing is ever resent behind the caller's
back — a failure after the write counts against ``retries`` like any
other connection-level failure.

A connection is a plain socket that frames its replies with the server
module's own head reader (:func:`repro.api.server.read_head`): a status
line, header fields, then exactly ``Content-Length`` body bytes.  Only an
``https://`` client loads ``ssl``, when it opens its first connection.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import SplitResult, urlsplit

from repro.api.protocol import Request, Response, error_from_wire
from repro.api.server import read_head
from repro.errors import RemoteError, RemoteTransportError

if TYPE_CHECKING:  # typing only: the client itself loads no engine
    from repro.core.advisor import Advice, ContextLike

__all__ = ["RemoteAdvisor", "RemoteSession"]

#: Seconds a connection may sit idle and still be reused — well under the
#: server's ``SOCKET_TIMEOUT_SECONDS``, so the client never writes into a
#: connection the server is about to time out.
MAX_IDLE_SECONDS = 10.0

#: Base sleep between transport attempts; attempt ``n`` sleeps
#: ``BACKOFF_SECONDS * 2**(n-1)``.
BACKOFF_SECONDS = 0.05


def _readable(sock: socket.socket) -> bool:
    """Whether a read would not block: on an idle connection, a close."""
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


class _Connection:
    """One keep-alive HTTP/1.1 connection: a socket and its read buffer."""

    def __init__(self, url: SplitResult, timeout: float) -> None:
        https, host = url.scheme == "https", url.hostname or "localhost"
        sock = socket.create_connection((host, url.port or (443 if https else 80)), timeout)
        # Request head and body leave in one write, and the reply is not
        # held back by Nagle's algorithm waiting on a delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if https:
            import ssl  # only an https client pays for the TLS stack

            sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
        self.sock, self._url = sock, url
        self._reader = sock.makefile("rb")

    def exchange(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, bytes, bool]:
        """Send one request; its reply as ``(status, body, server closes)``."""
        head = f"{method} {self._url.path}{path} HTTP/1.1\r\nHost: {self._url.netloc}\r\n"
        if body is not None:
            head += (
                "Content-Type: application/json; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        self.sock.sendall(head.encode("latin-1") + b"\r\n" + (body or b""))
        status = 100
        while status < 200:  # 1xx replies are interim: the real one follows
            start, fields = read_head(self._reader)
            words = start.split(None, 2)
            if len(words) < 2 or not words[0].startswith("HTTP/1.") or not words[1].isdigit():
                raise ConnectionError(
                    f"no HTTP/1.x status line in the reply: {start[:80]!r}"
                    if start else "the server closed the connection without a reply"
                )
            status = int(words[1])
        length = fields.get("content-length", "")
        if "transfer-encoding" in fields or not (length.isascii() and length.isdigit()):
            raise ConnectionError("the reply is not framed by one Content-Length")
        data = self._reader.read(int(length))
        if len(data) < int(length):
            raise ConnectionError("the server closed the connection inside a reply")
        connection = fields.get("connection", "").lower()
        closes = "close" in connection or (
            words[0] == "HTTP/1.0" and "keep-alive" not in connection
        )
        return status, data, closes

    def close(self) -> None:
        self._reader.close()
        self.sock.close()


class RemoteAdvisor:
    """A client for one advisor server.

    Parameters
    ----------
    url:
        Base URL of the server, e.g. ``"http://127.0.0.1:8765"``.
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Extra transport attempts after a *connection-level* failure
        (unreachable host, dropped connection, timeout).  HTTP error
        responses are never retried — the server answered.  ``0`` (the
        default) keeps the historical single-attempt behaviour.
    trace:
        Ask the server to trace every request sent through this client.
        Each response's span tree is kept on :attr:`last_trace` (also on
        the decoded :class:`~repro.api.protocol.Response` envelope), so
        after any call the full server-side breakdown — through a cluster
        router down to individual engine operations — is one attribute
        away.

    After exhausting every attempt the client raises a typed
    :class:`~repro.errors.RemoteTransportError` naming the attempt count
    — never a raw socket exception.  The cluster router builds on
    exactly this path for its node forwarding: that error class is its
    "mark the node dead and fail over" signal.

    Examples
    --------
    >>> advisor = RemoteAdvisor("http://127.0.0.1:8765")   # doctest: +SKIP
    >>> session = advisor.open_session("alice", context=["tonnage"])
    >>> advice = session.advise()
    >>> session.drill(0, 0)
    """

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        retries: int = 0,
        trace: bool = False,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = float(timeout)
        self.retries = max(0, int(retries))
        self.trace = bool(trace)
        #: Span tree of the most recent traced call (``None`` otherwise).
        self.last_trace: Optional[Dict[str, Any]] = None
        self._url = urlsplit(self.url)
        # Idle keep-alive connections, most recently used on top, each
        # with the time it was put back.
        self._idle_lock = threading.Lock()
        self._idle: List[Tuple[_Connection, float]] = []

    # -- transport -----------------------------------------------------------

    def _take(self) -> _Connection:
        """An idle connection that is still open, else a new one."""
        while True:
            with self._idle_lock:
                if not self._idle:
                    break
                connection, since = self._idle.pop()
            fresh = time.monotonic() - since < MAX_IDLE_SECONDS
            # Nothing is in flight, so anything readable is the peer's close.
            if fresh and not _readable(connection.sock):
                return connection
            connection.close()
        return _Connection(self._url, self.timeout)

    def _http_once(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, bytes]:
        connection = self._take()
        try:
            status, data, closes = connection.exchange(method, path, body)
        except BaseException:
            connection.close()
            raise
        if closes:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append((connection, time.monotonic()))
        return status, data

    def _exchange(self, method: str, path: str, body: Optional[bytes] = None) -> bytes:
        """One exchange within the retry budget; returns the reply body."""
        attempts = self.retries + 1
        failure: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(BACKOFF_SECONDS * (2 ** (attempt - 1)))
            try:
                status, data = self._http_once(method, path, body)
            except (OSError, ValueError) as exc:
                # A node killed mid-exchange surfaces as a reset, a closed
                # connection or a bare timeout, depending on where the
                # connection died; all are connection-level failures, as is
                # a URL whose port does not parse (ValueError).
                failure = exc
                continue
            if status < 400:
                return data
            # The server answered: transport-level rejections (bad path,
            # bad JSON) still carry an error envelope; surface its message
            # and code without retrying.
            fallback = f"HTTP {status} from {self.url}{path}"
            try:
                error = json.loads(data).get("error") or {}
                message, code = str(error.get("message") or fallback), error.get("code")
            except (ValueError, AttributeError):
                raise RemoteError(fallback) from None
            raise RemoteError(message, code=code)
        raise RemoteTransportError(
            f"cannot reach {self.url}{path} after {attempts} attempt(s): {failure}"
        ) from failure

    def _http(self, method: str, path: str, body: Optional[bytes] = None) -> Any:
        """One exchange whose reply is JSON, decoded."""
        data = self._exchange(method, path, body)
        try:
            return json.loads(data)
        except ValueError as exc:
            raise RemoteError(f"server returned invalid JSON: {exc}") from exc

    def close(self) -> None:
        """Close the idle connections (the client stays usable)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection, _ in idle:
            connection.close()

    def forward(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """POST one already-encoded request envelope; returns the raw reply.

        The pass-through transport of the cluster router: the wire
        payload is forwarded verbatim and the response envelope comes
        back undecoded, so a forwarded exchange is byte-identical to a
        direct one.  Connection-level failures raise
        :class:`~repro.errors.RemoteError` exactly as :meth:`rpc` does.
        """
        body = json.dumps(dict(payload), ensure_ascii=False).encode("utf-8")
        reply = self._http("POST", "/v1/rpc", body)
        if not isinstance(reply, dict):
            raise RemoteError(
                f"server returned a non-envelope reply: {type(reply).__name__}"
            )
        return reply

    def rpc(self, request: Request) -> Response:
        """Send one request envelope; returns the decoded response envelope.

        With the client constructed ``trace=True``, an untraced request
        gains an empty trace context (asking the server to open a trace)
        and the response's span tree lands on :attr:`last_trace`.
        """
        if self.trace and request.trace is None:
            request.trace = {}
        body = json.dumps(request.to_wire(), ensure_ascii=False).encode("utf-8")
        response = Response.from_wire(self._http("POST", "/v1/rpc", body))
        if response.trace is not None:
            self.last_trace = response.trace
        return response

    def call(self, op: str, session: str = "", **params: Any) -> Any:
        """Execute one operation and return its decoded result.

        Raises the typed :class:`~repro.errors.CharlesError` subclass
        matching the server's error code when the operation fails.
        """
        response = self.rpc(Request(op=op, session=session, params=params))
        if not response.ok:
            raise error_from_wire(response.error_code, response.error)
        return response.result

    # -- service surface -----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The server's liveness document (``GET /v1/health``)."""
        return self._http("GET", "/v1/health")

    def cluster(self) -> Dict[str, Any]:
        """The cluster topology document (``GET /v1/cluster``).

        Served by the cluster router's front door: shard map, node
        states, session placements and routing counters.  A plain
        single-node server answers 404 (as a :class:`RemoteError`).
        """
        return self._http("GET", "/v1/cluster")

    def stats(self) -> Dict[str, Any]:
        """Service-wide statistics (the ``stats`` op).

        ``GET /v1/stats`` serves the same document for shell/monitoring
        use; the client goes through the RPC op so tagged values decode
        back to their real types.
        """
        return self.call("stats")

    def metrics_document(self) -> Dict[str, Any]:
        """The mergeable metrics document (``GET /v1/metrics.json``)."""
        reply = self._http("GET", "/v1/metrics.json")
        if not isinstance(reply, Mapping):
            raise RemoteError(
                f"server returned a non-object metrics reply: {type(reply).__name__}"
            )
        metrics = reply.get("metrics")
        return dict(metrics) if isinstance(metrics, Mapping) else {}

    def count(self, context: ContextLike = None, table: Optional[str] = None) -> int:
        """Cardinality of a context on a table (the ``count`` op)."""
        return self.call("count", context=context, table=table)

    def ingest(
        self,
        rows: Optional[List[Dict[str, Any]]] = None,
        delete: ContextLike = None,
        table: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Mutate a served table over the wire (the ``ingest`` op).

        Appends ``rows`` (a list of row mappings — dates and booleans
        ride the tagged codec losslessly) and/or deletes the rows a
        *constrained* ``delete`` context selects.  Every open session on
        the table sees the mutation: its advice is reported stale until
        re-advised with ``refresh=True``.  Returns the server's mutation
        summary (new ``data_version``, cache entries invalidated, ...).
        """
        params: Dict[str, Any] = {}
        if rows is not None:
            params["rows"] = rows
        if delete is not None:
            params["delete"] = delete
        if table is not None:
            params["table"] = table
        return self.call("ingest", **params)

    def open_session(
        self,
        name: str,
        table: Optional[str] = None,
        context: ContextLike = None,
        max_answers: Optional[int] = None,
        replace: bool = True,
    ) -> "RemoteSession":
        """Open (or replace) a named session on the server."""
        self.call(
            "open_session",
            session=name,
            table=table,
            context=context,
            max_answers=max_answers,
            replace=replace,
        )
        return RemoteSession(self, name)

    def session(self, name: str) -> "RemoteSession":
        """Attach to a session that is already open on the server."""
        remote = RemoteSession(self, name)
        remote.describe()  # raises SessionError when it does not exist
        return remote

    def close_session(self, name: str) -> Dict[str, Any]:
        """Close a session; returns its final statistics."""
        return self.call("close_session", session=name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteAdvisor(url={self.url!r})"


class RemoteSession:
    """One named session living on a remote advisor server.

    Mirrors :class:`~repro.service.ServiceSession`: the same methods
    return the same objects, so exploration code cannot tell whether its
    session is local or remote.  All state lives server-side; this object
    holds only the session name.
    """

    def __init__(self, advisor: RemoteAdvisor, name: str) -> None:
        self.advisor = advisor
        self.name = name

    # -- the Figure 1 loop ----------------------------------------------------

    def advise(
        self,
        context: ContextLike = None,
        refresh: bool = False,
        mode: Optional[str] = None,
    ) -> Advice:
        """Start (or restart) the session at a context and return advice.

        ``refresh=True`` with no context recomputes the current context's
        advice against the server's newest data version — the follow-up
        to a :attr:`stale` flag raised by an ingest.

        ``mode="interactive"`` serves approximate advice computed on a
        uniform sample (the returned :class:`~repro.core.advisor.Advice`
        has ``approximate=True`` and an ``error_bound``); :meth:`refine`
        asks the server for the exact answers, which it computes on
        request through its advice cache.  ``None`` leaves the mode to the
        server's backend (exact unless its spec samples).
        """
        params: Dict[str, Any] = {"context": context}
        if refresh:
            params["refresh"] = True
        if mode is not None:
            params["mode"] = mode
        return self.advisor.call("advise", session=self.name, **params)

    def refine(self) -> Advice:
        """Exact advice at the current context, replacing an approximate one."""
        return self.advisor.call("refine", session=self.name)

    def drill(self, answer_index: int, segment_index: int) -> Advice:
        """Drill into one segment of one ranked answer."""
        return self.advisor.call(
            "drill",
            session=self.name,
            answer_index=answer_index,
            segment_index=segment_index,
        )

    def back(self) -> Advice:
        """Pop one drill-down level and return the advice at the restored context."""
        return self.advisor.call("back", session=self.name)

    def current_advice(self) -> Optional[Advice]:
        """The advice at the current context, or ``None`` before the first advise.

        Unlike :meth:`advise`, this never restarts the exploration.
        """
        return self.advisor.call("advise", session=self.name, current=True)

    # -- reporting ------------------------------------------------------------

    def _describe(self) -> Dict[str, Any]:
        return self.advisor.call("describe", session=self.name)

    @property
    def table_name(self) -> str:
        return self._describe()["table"]

    @property
    def depth(self) -> int:
        return self._describe()["depth"]

    @property
    def data_version(self) -> Optional[int]:
        """The served table's current data version."""
        return self._describe()["data_version"]

    @property
    def stale(self) -> bool:
        """Whether the session's advice predates the newest data version."""
        return bool(self._describe()["stale"])

    def breadcrumbs(self) -> List[str]:
        return list(self._describe()["breadcrumbs"])

    def describe(self) -> str:
        return self._describe()["text"]

    def stats(self) -> Dict[str, Any]:
        """Per-session counters, as the server tracks them."""
        return self._describe()["stats"]

    def close(self) -> Dict[str, Any]:
        """Close the remote session; returns its final statistics."""
        return self.advisor.close_session(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteSession(name={self.name!r}, url={self.advisor.url!r})"
