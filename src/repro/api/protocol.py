"""Request/response envelopes of the advisor wire protocol.

One protocol, any transport: a client builds a :class:`Request` — an
*operation* plus its parameters — and receives a :class:`Response`
carrying the result, the server-side timing and, on failure, a stable
error code from the :class:`~repro.errors.CharlesError` hierarchy.  The
HTTP server posts these envelopes as JSON over ``POST /v1/rpc``; the
in-process :meth:`~repro.service.AdvisorService.submit` speaks exactly
the same objects, which is what lets :class:`~repro.api.client.RemoteAdvisor`
mirror the local session surface verbatim.

The op table
------------

:data:`OPERATIONS` is the **only** place a wire operation is written
down: one :class:`Operation` record per op.  Request validation
(:meth:`repro.service.AdvisorService.submit`), cluster routing, the
health documents and the CLI's ``--op`` choices all read it; what it
cannot enforce by construction — a handler and a client method per op,
the table in ``docs/api.md`` — ``tests/api/test_op_table.py`` holds to it.

Versioning policy
-----------------

* ``API_VERSION`` covers the envelope shape and the operation table;
  ``repro.api.codec.SCHEMA_VERSION`` covers value encodings.  Both are
  integers, both only move on breaking changes.
* A server answers requests whose ``api_version`` is at most its own;
  newer requests are rejected with ``protocol`` error code.
* Operations and error codes are append-only: they are never renamed or
  re-used within a version.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

from repro.api.codec import SCHEMA_VERSION, from_wire, to_wire
from repro.errors import ProtocolError, WireFormatError, error_code_registry

__all__ = [
    "API_VERSION",
    "OPERATIONS",
    "PARAM_KINDS",
    "Request",
    "Response",
    "error_from_wire",
    "next_request_id",
]

#: Version of the envelope shape and operation table.
API_VERSION = 1

#: The Python types each parameter kind accepts (``True`` is never an
#: ``int`` on the wire).  ``None`` means "not given" and passes every
#: kind but ``index``: a drill position may be omitted (→ 0), not null.
PARAM_KINDS: Dict[str, Tuple[type, ...]] = {
    "int": (int,),
    "index": (int,),
    "str": (str,),
    "bool": (bool,),
    "any": (object,),
}


class Operation(NamedTuple):
    """One row of the op table.

    ``params`` maps each accepted parameter to a key of
    :data:`PARAM_KINDS`; anything else is rejected.  ``route`` is how a
    cluster router serves the op: ``session`` (needs a non-empty session
    name; goes to the node owning it, journaled for failover), ``table``
    (stateless, to the table's node), ``replicated`` (a mutation applied
    to every live node) or ``fanout`` (every live node answers, the
    router aggregates).  ``advice``: the result is an advice object.
    """

    params: Mapping[str, str]
    route: str
    advice: bool = False


#: The operations a version-1 server answers (see docs/api.md).
OPERATIONS: Dict[str, Operation] = {
    "open_session": Operation(
        {"table": "str", "context": "any", "max_answers": "int", "replace": "bool"},
        "session",
    ),
    "advise": Operation(
        {"context": "any", "current": "bool", "refresh": "bool", "mode": "str"},
        "session",
        advice=True,
    ),
    "drill": Operation(
        {"answer_index": "index", "segment_index": "index"}, "session", advice=True
    ),
    "back": Operation({}, "session", advice=True),
    "refine": Operation({}, "session", advice=True),
    "count": Operation({"context": "any", "table": "str"}, "table"),
    "describe": Operation({}, "session"),
    "stats": Operation({}, "fanout"),
    "ingest": Operation({"table": "str", "rows": "any", "delete": "any"}, "replicated"),
    "slow_ops": Operation({"limit": "int"}, "fanout"),
    "close_session": Operation({}, "session"),
}

_COUNTER = itertools.count(1)


def _validated_trace(
    trace: Optional[Mapping[str, Any]], envelope: str
) -> Optional[Dict[str, Any]]:
    """Check an envelope ``trace`` extension (``None`` or a JSON object)."""
    if trace is None:
        return None
    if not isinstance(trace, Mapping):
        raise WireFormatError(
            f"{envelope} trace must be an object, got {type(trace).__name__}"
        )
    return dict(trace)


def next_request_id() -> str:
    """A process-unique request identifier (``pid-N``)."""
    return f"{os.getpid():x}-{next(_COUNTER)}"


class Request:
    """One operation submitted to the advisor service.

    Parameters
    ----------
    op:
        The operation name (see :data:`OPERATIONS`).
    session:
        The session the operation addresses (empty for session-less ops
        such as ``count`` and ``stats``).
    params:
        Operation parameters as a mapping.
    request_id:
        Client-chosen identifier echoed back in the response (one is
        generated when omitted).
    api_version:
        Protocol version the client speaks; defaults to this library's.
    trace:
        Optional trace context (an envelope extension).  ``{}`` asks the
        server to trace this request; a router forwards
        ``{"trace_id": ..., "parent_id": ...}`` so the owning node joins
        the distributed trace.  ``None`` (the default, and what legacy
        payloads decode to) means untraced.
    """

    __slots__ = ("op", "session", "params", "request_id", "api_version", "trace")

    def __init__(
        self,
        op: str,
        session: str = "",
        params: Optional[Mapping[str, Any]] = None,
        request_id: Optional[str] = None,
        api_version: int = API_VERSION,
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not isinstance(op, str):
            raise ProtocolError(f"operation must be a string, got {type(op).__name__}")
        self.op = op
        self.session = session
        self.params: Dict[str, Any] = dict(params or {})
        self.request_id = request_id if request_id is not None else next_request_id()
        self.api_version = int(api_version)
        self.trace = _validated_trace(trace, "request")

    # -- wire form -----------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """The JSON-safe request envelope (``trace`` only when set)."""
        payload: Dict[str, Any] = {
            "api_version": self.api_version,
            "schema": SCHEMA_VERSION,
            "op": self.op,
            "session": self.session,
            "request_id": self.request_id,
            "params": {key: to_wire(value) for key, value in self.params.items()},
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "Request":
        """Decode a request envelope (validating shape and versions)."""
        if not isinstance(payload, Mapping):
            raise WireFormatError(
                f"request envelope must be an object, got {type(payload).__name__}"
            )
        if "op" not in payload:
            raise WireFormatError("request envelope lacks the 'op' field")
        api_version = payload.get("api_version", API_VERSION)
        if not isinstance(api_version, int):
            raise ProtocolError(f"malformed api_version: {api_version!r}")
        if api_version > API_VERSION:
            raise ProtocolError(
                f"request speaks api_version {api_version}, "
                f"but this server only understands up to {API_VERSION}"
            )
        schema = payload.get("schema", SCHEMA_VERSION)
        if not isinstance(schema, int) or schema > SCHEMA_VERSION:
            raise ProtocolError(
                f"request uses schema version {schema!r}, "
                f"but this server only understands up to {SCHEMA_VERSION}"
            )
        params = payload.get("params") or {}
        if not isinstance(params, Mapping):
            raise WireFormatError(
                f"request params must be an object, got {type(params).__name__}"
            )
        session = payload.get("session", "")
        if not isinstance(session, str):
            raise WireFormatError(
                f"request session must be a string, got {type(session).__name__}"
            )
        try:
            decoded = {key: from_wire(value) for key, value in params.items()}
        except RecursionError:
            raise WireFormatError("request params nest too deeply to decode") from None
        return cls(
            op=payload["op"],
            session=session,
            params=decoded,
            request_id=str(payload.get("request_id", "")),
            api_version=api_version,
            trace=_validated_trace(payload.get("trace"), "request"),
        )

    # -- value semantics ------------------------------------------------------

    def _key(self) -> Tuple[Any, ...]:
        return (
            self.op,
            self.session,
            sorted(self.params.items(), key=lambda item: item[0]),
            self.request_id,
            self.api_version,
            None if self.trace is None else sorted(self.trace.items()),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Request):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (
            f"Request(op={self.op!r}, session={self.session!r}, "
            f"params={self.params!r}, request_id={self.request_id!r})"
        )


class Response:
    """Outcome of one :class:`Request`.

    Attributes
    ----------
    ok:
        Whether the operation succeeded.
    op, session, request_id:
        Echoed from the request.
    result:
        The operation's result (``None`` on failure).  In-process this is
        a live object (e.g. an :class:`~repro.core.advisor.Advice`); on
        the wire it is codec-encoded.
    error:
        Human-readable error prose (without the ``[code]`` marker — the
        code travels separately in ``error_code``, and a client
        rebuilding the exception re-appends it in ``str()``); ``None``
        on success.
    error_code:
        Stable machine-readable code from the
        :class:`~repro.errors.CharlesError` hierarchy; ``None`` on success.
    elapsed_seconds:
        Server-side wall-clock time spent executing the operation.
    trace:
        Span tree document of the server-side execution (an envelope
        extension) — present only when the request asked for tracing;
        ``None`` otherwise and on legacy payloads.
    """

    __slots__ = (
        "ok",
        "op",
        "session",
        "result",
        "error",
        "error_code",
        "request_id",
        "elapsed_seconds",
        "trace",
    )

    def __init__(
        self,
        ok: bool,
        op: str,
        session: str = "",
        result: Any = None,
        error: Optional[str] = None,
        error_code: Optional[str] = None,
        request_id: str = "",
        elapsed_seconds: float = 0.0,
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.ok = bool(ok)
        self.op = op
        self.session = session
        self.result = result
        self.error = error
        self.error_code = error_code
        self.request_id = request_id
        self.elapsed_seconds = float(elapsed_seconds)
        self.trace = _validated_trace(trace, "response")

    def to_wire(self) -> Dict[str, Any]:
        """The JSON-safe response envelope (``trace`` only when set)."""
        payload: Dict[str, Any] = {
            "api_version": API_VERSION,
            "schema": SCHEMA_VERSION,
            "ok": self.ok,
            "op": self.op,
            "session": self.session,
            "request_id": self.request_id,
            "elapsed_seconds": self.elapsed_seconds,
            "result": to_wire(self.result),
            "error": (
                None
                if self.error is None and self.error_code is None
                else {"code": self.error_code, "message": self.error}
            ),
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "Response":
        """Decode a response envelope (result decoded back to live objects)."""
        if not isinstance(payload, Mapping):
            raise WireFormatError(
                f"response envelope must be an object, got {type(payload).__name__}"
            )
        schema = payload.get("schema", SCHEMA_VERSION)
        if not isinstance(schema, int) or schema > SCHEMA_VERSION:
            raise WireFormatError(
                f"response uses schema version {schema!r}, "
                f"but this client only understands up to {SCHEMA_VERSION}"
            )
        error = payload.get("error")
        message: Optional[str] = None
        code: Optional[str] = None
        if error is not None:
            if not isinstance(error, Mapping):
                raise WireFormatError(f"malformed error envelope: {error!r}")
            message = error.get("message")
            code = error.get("code")
        return cls(
            ok=bool(payload.get("ok")),
            op=str(payload.get("op", "")),
            session=str(payload.get("session", "")),
            result=from_wire(payload.get("result")),
            error=message,
            error_code=code,
            request_id=str(payload.get("request_id", "")),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            trace=_validated_trace(payload.get("trace"), "response"),
        )

    def _key(self) -> Tuple[Any, ...]:
        return (
            self.ok,
            self.op,
            self.session,
            self.result,
            self.error,
            self.error_code,
            self.request_id,
            self.elapsed_seconds,
            self.trace,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Response):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"error={self.error_code!r}"
        return f"Response(op={self.op!r}, session={self.session!r}, {status})"


def error_from_wire(code: Optional[str], message: Optional[str]) -> Exception:
    """Rebuild a typed exception from a wire error envelope.

    Codes whose class takes a plain message constructor are raised as that
    class; classes with structured constructors (e.g.
    :class:`~repro.errors.UnknownColumnError`) fall back to
    :class:`~repro.errors.RemoteError` carrying the original code.
    """
    from repro.errors import RemoteError

    text = message or "remote error"
    cls = error_code_registry().get(code or "")
    if cls is not None:
        # Only classes whose effective constructor is Exception's plain
        # (message,) signature can be rebuilt faithfully from the wire.
        defining = next(base for base in cls.__mro__ if "__init__" in base.__dict__)
        if defining in (Exception, BaseException, object):
            return cls(text)
    return RemoteError(text, code=code)
