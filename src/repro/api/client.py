"""RemoteAdvisor: the advisor service as seen from across the network.

The client half of the front-end/back-end split: a
:class:`RemoteAdvisor` speaks the versioned JSON protocol of
:mod:`repro.api.protocol` over HTTP (stdlib ``urllib`` only) and hands
out :class:`RemoteSession` objects exposing the **same surface** as the
in-process :class:`~repro.service.ServiceSession` —
``advise`` / ``drill`` / ``back`` / ``breadcrumbs`` / ``describe`` /
``stats`` — so an exploration script written against a local
``AdvisorService`` runs unmodified against a remote server.  Results
decode back into the real domain objects (:class:`~repro.core.advisor.Advice`,
:class:`~repro.sdl.segmentation.Segmentation`, ...), and server-side
failures re-raise as the matching :class:`~repro.errors.CharlesError`
subclass, resolved through the stable wire error codes.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Mapping, Optional

from repro.api.protocol import Request, Response, error_from_wire
from repro.core.advisor import Advice, ContextLike
from repro.errors import RemoteError, RemoteTransportError

__all__ = ["RemoteAdvisor", "RemoteSession"]


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
    backoff:
        Base sleep in seconds between attempts; attempt ``n`` sleeps
        ``backoff * 2**(n-1)`` (exponential).
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
        backoff: float = 0.05,
        trace: bool = False,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = float(timeout)
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.trace = bool(trace)
        #: Span tree of the most recent traced call (``None`` otherwise).
        self.last_trace: Optional[Dict[str, Any]] = None

    # -- transport -----------------------------------------------------------

    def _http_once(self, method: str, path: str, body: Optional[bytes]) -> Any:
        request = urllib.request.Request(
            f"{self.url}{path}",
            data=body,
            method=method,
            headers={"Content-Type": "application/json; charset=utf-8"},
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as reply:
            text = reply.read().decode("utf-8")
        try:
            return json.loads(text)
        except ValueError as exc:
            raise RemoteError(f"server returned invalid JSON: {exc}") from exc

    def _http(self, method: str, path: str, body: Optional[bytes] = None) -> Any:
        attempts = self.retries + 1
        failure: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                return self._http_once(method, path, body)
            except urllib.error.HTTPError as exc:
                # The server answered: transport-level rejections (bad
                # path, bad JSON) still carry an error envelope; surface
                # its message and code without retrying.
                try:
                    payload = json.loads(exc.read().decode("utf-8"))
                    error = payload.get("error") or {}
                    raise RemoteError(
                        str(error.get("message") or exc), code=error.get("code")
                    ) from exc
                except (ValueError, AttributeError):
                    raise RemoteError(f"HTTP {exc.code} from {self.url}{path}") from exc
            except urllib.error.URLError as exc:
                failure = exc
            except (http.client.HTTPException, OSError) as exc:
                # A node killed mid-exchange surfaces as RemoteDisconnected,
                # ConnectionResetError or a bare timeout, depending on where
                # the connection died; all are connection-level failures.
                failure = exc
        reason = getattr(failure, "reason", failure)
        raise RemoteTransportError(
            f"cannot reach {self.url}{path} after {attempts} attempt(s): {reason}"
        ) from failure

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

    def slow_ops(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The server's slow-op log (the ``slow_ops`` op).

        Against a cluster router this fans out to every live node and
        returns the merged worst-first log; entries made while tracing
        was on carry their full span trees.
        """
        params: Dict[str, Any] = {}
        if limit is not None:
            params["limit"] = limit
        result = self.call("slow_ops", **params)
        return dict(result) if isinstance(result, Mapping) else {}

    def metrics_document(self) -> Dict[str, Any]:
        """The mergeable metrics document (``GET /v1/metrics.json``)."""
        reply = self._http("GET", "/v1/metrics.json")
        if not isinstance(reply, Mapping):
            raise RemoteError(
                f"server returned a non-object metrics reply: {type(reply).__name__}"
            )
        metrics = reply.get("metrics")
        return dict(metrics) if isinstance(metrics, Mapping) else {}

    def metrics_text(self) -> str:
        """The Prometheus text exposition (``GET /v1/metrics``).

        The one endpoint that is not JSON, so it bypasses the JSON
        transport helper; connection failures raise the same typed
        :class:`~repro.errors.RemoteTransportError`.
        """
        request = urllib.request.Request(f"{self.url}/v1/metrics", method="GET")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                return str(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise RemoteError(f"HTTP {exc.code} from {self.url}/v1/metrics") from exc
        except (urllib.error.URLError, http.client.HTTPException, OSError) as exc:
            raise RemoteTransportError(
                f"cannot reach {self.url}/v1/metrics: {getattr(exc, 'reason', exc)}"
            ) from exc

    @property
    def table_names(self) -> List[str]:
        return list(self.health()["tables"])

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
        has ``approximate=True`` and an ``error_bound``) while the server
        refines it exactly in the background; collect the exact answers
        with :meth:`refine`.  ``None`` leaves the mode to the server's
        backend (exact unless its spec samples).
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
