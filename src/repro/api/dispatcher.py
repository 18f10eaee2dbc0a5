"""The wire-facing dispatcher: envelope bytes in, envelope bytes out.

A :class:`Dispatcher` owns the transport-independent half of a server:
it decodes request envelopes, routes them into an
:class:`~repro.service.AdvisorService` (whose ``submit`` executes the
operation and converts :class:`~repro.errors.CharlesError` failures into
stable wire error codes), and encodes the response envelope.  The HTTP
server is a thin shell around :meth:`handle_wire`, which tests also drive
directly to exercise the protocol without sockets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Mapping

from repro.api.protocol import Request, Response
from repro.errors import CharlesError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.service.service import AdvisorService

__all__ = ["Dispatcher"]


class Dispatcher:
    """Maps wire envelopes onto one advisor service."""

    def __init__(self, service: "AdvisorService") -> None:
        self.service = service

    def handle_wire(self, payload: Any) -> Dict[str, Any]:
        """Execute one JSON-safe request envelope; never raises.

        Envelope decoding failures, operation failures and result
        encoding failures all come back as error envelopes with the
        raising class's stable ``code``.
        """
        op = payload.get("op", "") if isinstance(payload, Mapping) else ""
        request_id = (
            str(payload.get("request_id", "")) if isinstance(payload, Mapping) else ""
        )
        try:
            request = Request.from_wire(payload)
        except CharlesError as error:
            return Response(
                ok=False,
                op=str(op),
                error=error.message,
                error_code=error.code,
                request_id=request_id,
            ).to_wire()
        response = self.service.submit(request)
        try:
            return response.to_wire()
        except CharlesError as error:
            # The operation succeeded but its result has no wire encoding
            # (e.g. a custom object smuggled into stats).
            return Response(
                ok=False,
                op=request.op,
                session=request.session,
                error=error.message,
                error_code=error.code,
                request_id=request.request_id,
                elapsed_seconds=response.elapsed_seconds,
            ).to_wire()
