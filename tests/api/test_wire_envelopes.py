"""Unit tests for the request/response envelopes and error-code mapping."""

from __future__ import annotations

import pytest

from repro.api.protocol import (
    API_VERSION,
    OPERATIONS,
    Request,
    Response,
    error_from_wire,
)
from repro.errors import (
    CharlesError,
    ProtocolError,
    RemoteError,
    SessionError,
    UnknownColumnError,
    WireFormatError,
    error_code_registry,
    iter_error_classes,
)
from repro.sdl import RangePredicate, SDLQuery


class TestErrorCodes:
    def test_every_error_class_has_a_unique_code(self):
        classes = list(iter_error_classes())
        codes = [cls.code for cls in classes]
        assert len(set(codes)) == len(codes), "duplicate wire error codes"
        assert all(isinstance(code, str) and code for code in codes)

    def test_str_includes_the_code(self):
        error = SessionError("no open session named 'x'")
        assert str(error) == "no open session named 'x' [core_session]"
        assert error.message == "no open session named 'x'"

    def test_structured_constructors_keep_their_codes(self):
        error = UnknownColumnError("speed", ("tonnage",))
        assert error.code == "storage_unknown_column"
        assert "speed" in str(error)
        assert str(error).endswith("[storage_unknown_column]")

    def test_registry_covers_the_hierarchy(self):
        registry = error_code_registry()
        assert registry["core_session"] is SessionError
        assert registry["charles"] is CharlesError
        assert registry["protocol"] is ProtocolError

    def test_error_from_wire_rebuilds_plain_constructors(self):
        rebuilt = error_from_wire("core_session", "gone")
        assert isinstance(rebuilt, SessionError)
        assert rebuilt.message == "gone"

    def test_error_from_wire_falls_back_for_structured_constructors(self):
        rebuilt = error_from_wire("storage_unknown_column", "unknown column 'x'")
        assert isinstance(rebuilt, RemoteError)
        assert rebuilt.code == "storage_unknown_column"

    def test_error_from_wire_handles_unknown_codes(self):
        rebuilt = error_from_wire("code_from_the_future", "boom")
        assert isinstance(rebuilt, RemoteError)
        assert rebuilt.code == "code_from_the_future"


class TestRequestEnvelope:
    def test_params_are_copied_into_the_request(self):
        params = {"answer_index": 2, "segment_index": 1}
        request = Request(op="drill", session="s", params=params)
        assert request.params == {"answer_index": 2, "segment_index": 1}
        params["answer_index"] = 9
        assert request.params["answer_index"] == 2

    def test_request_ids_are_generated_and_unique(self):
        first, second = Request(op="stats"), Request(op="stats")
        assert first.request_id and second.request_id
        assert first.request_id != second.request_id

    def test_operation_names_must_be_strings(self):
        with pytest.raises(ProtocolError):
            Request(op=7)

    def test_wire_round_trip_with_structured_context(self):
        context = SDLQuery([RangePredicate("tonnage", 100, 900)])
        request = Request(op="advise", session="s", params={"context": context})
        decoded = Request.from_wire(request.to_wire())
        assert decoded == request
        assert decoded.params["context"] == context

    def test_from_wire_rejects_newer_api_version(self):
        payload = Request(op="stats").to_wire()
        payload["api_version"] = API_VERSION + 1
        with pytest.raises(ProtocolError) as excinfo:
            Request.from_wire(payload)
        assert "api_version" in str(excinfo.value)

    def test_from_wire_rejects_malformed_envelopes(self):
        with pytest.raises(WireFormatError):
            Request.from_wire("not an object")
        with pytest.raises(WireFormatError):
            Request.from_wire({"session": "s"})  # no op
        with pytest.raises(WireFormatError):
            Request.from_wire({"op": "stats", "params": ["not", "a", "mapping"]})
        with pytest.raises(WireFormatError):
            Request.from_wire({"op": "stats", "session": 42})

    def test_params_nested_past_the_decoder_are_a_wire_format_error(self):
        nested = "tonnage"
        for _ in range(5000):
            nested = {"inner": nested}
        with pytest.raises(WireFormatError, match="nest too deeply"):
            Request.from_wire({"op": "count", "params": {"context": nested}})

    def test_nesting_the_decoder_follows_still_decodes(self):
        nested = "tonnage"
        for _ in range(50):
            nested = [nested]
        request = Request.from_wire({"op": "stats", "params": {"deep": nested}})
        assert request.params["deep"] == nested

    def test_operation_table_is_the_wire_surface(self):
        assert set(OPERATIONS) == {
            "open_session",
            "advise",
            "drill",
            "back",
            "refine",
            "count",
            "describe",
            "stats",
            "ingest",
            "slow_ops",
            "close_session",
        }


class TestResponseEnvelope:
    def test_success_round_trip(self):
        response = Response(
            ok=True, op="count", session="", result=42,
            request_id="r-9", elapsed_seconds=0.25,
        )
        decoded = Response.from_wire(response.to_wire())
        assert decoded == response
        assert decoded.result == 42
        assert decoded.elapsed_seconds == 0.25

    def test_error_round_trip_keeps_code_and_message(self):
        response = Response(
            ok=False, op="drill", session="s",
            error="no open session named 's' [core_session]",
            error_code="core_session",
        )
        decoded = Response.from_wire(response.to_wire())
        assert decoded.error_code == "core_session"
        assert "no open session" in decoded.error

    def test_success_envelope_has_null_error(self):
        assert Response(ok=True, op="stats").to_wire()["error"] is None

    def test_from_wire_rejects_malformed_error_field(self):
        payload = Response(ok=False, op="x", error="e", error_code="charles").to_wire()
        payload["error"] = "just a string"
        with pytest.raises(WireFormatError):
            Response.from_wire(payload)
