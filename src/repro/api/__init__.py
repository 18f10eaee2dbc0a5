"""The advisor wire API: versioned protocol, HTTP server, remote client.

The paper pitches Charles as a query advisor *service* in front of a
DBMS.  This package is the client-side half of that claim — the same
front-end/back-end split the :class:`~repro.backends.base.ExecutionBackend`
protocol provides on the storage side, applied to the service surface:

* :mod:`repro.api.codec` — the versioned JSON codec: lossless
  ``to_wire``/``from_wire`` round-trips for every object a client sees
  (SDL queries, segmentations, ranked answers, whole advice payloads);
* :mod:`repro.api.protocol` — the canonical :class:`Request` /
  :class:`Response` envelopes (op, params, session, request id, api
  version; result, timing, structured error code) and
  :data:`OPERATIONS`, the one table every layer reads an operation's
  parameters and routing class from;
* :mod:`repro.api.dispatcher` — :class:`Dispatcher`, mapping envelopes
  onto an :class:`~repro.service.AdvisorService` and the
  :class:`~repro.errors.CharlesError` hierarchy onto stable wire codes;
* :mod:`repro.api.server` — :class:`AdvisorHTTPServer`, the protocol
  over its own HTTP/1.1 framer on a threaded ``socketserver`` TCP server
  (``POST /v1/rpc``, ``GET /v1/health``, ``GET /v1/stats``), wired to the
  CLI's ``serve --http``;
* :mod:`repro.api.client` — :class:`RemoteAdvisor` and
  :class:`RemoteSession`, keep-alive sockets framed the same way,
  mirroring the in-process
  :class:`~repro.service.ServiceSession` surface so exploration scripts
  run unmodified against a remote server, with **identical advice**
  (asserted end-to-end by the test suite).

See ``docs/api.md`` for the protocol reference.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.api.protocol": (
        "API_VERSION", "OPERATIONS", "Request", "Response", "error_from_wire",
    ),
    "repro.api.codec": ("SCHEMA_VERSION", "to_wire", "from_wire", "dumps", "loads"),
    "repro.api.dispatcher": ("Dispatcher",),
    "repro.api.server": ("AdvisorHTTPServer",),
    "repro.api.client": ("RemoteAdvisor", "RemoteSession"),
})

__all__ = list(_EXPORTS)
