"""Tests for the wire dispatcher and the service's operation table."""

from __future__ import annotations

import pytest

from repro.api.codec import from_wire
from repro.api.dispatcher import Dispatcher
from repro.api.protocol import API_VERSION, Request
from repro.core.advisor import Advice
from repro.sdl import ExclusionPredicate, SDLQuery, SetPredicate
from repro.service import AdvisorService
from repro.storage import Table
from repro.workloads import generate_voc

_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]


@pytest.fixture(scope="module")
def table():
    return generate_voc(rows=800, seed=11)


@pytest.fixture()
def service(table):
    return AdvisorService(table, batch_window=0.0)


@pytest.fixture()
def dispatcher(service):
    return Dispatcher(service)


class TestWireDispatch:
    def test_full_exploration_over_the_wire(self, dispatcher):
        opened = dispatcher.handle_wire(
            Request(
                op="open_session", session="s1", params={"context": _CONTEXT}
            ).to_wire()
        )
        assert opened["ok"] and opened["result"] == "s1"
        advice = dispatcher.handle_wire(
            Request(op="advise", session="s1", params={"context": _CONTEXT}).to_wire()
        )
        assert advice["ok"]
        decoded = from_wire(advice["result"])
        assert isinstance(decoded, Advice) and decoded.answers
        drilled = dispatcher.handle_wire(
            Request(
                op="drill",
                session="s1",
                params={"answer_index": 0, "segment_index": 0},
            ).to_wire()
        )
        assert drilled["ok"]
        described = dispatcher.handle_wire(
            Request(op="describe", session="s1").to_wire()
        )
        assert described["ok"]
        assert described["result"]["depth"] == 1
        assert len(described["result"]["breadcrumbs"]) == 2
        back = dispatcher.handle_wire(Request(op="back", session="s1").to_wire())
        assert back["ok"]
        closed = dispatcher.handle_wire(
            Request(op="close_session", session="s1").to_wire()
        )
        assert closed["ok"] and closed["result"]["requests"] >= 3

    def test_envelope_metadata_is_echoed(self, dispatcher):
        response = dispatcher.handle_wire(
            Request(op="stats", request_id="my-id-7").to_wire()
        )
        assert response["request_id"] == "my-id-7"
        assert response["api_version"] == API_VERSION
        assert response["elapsed_seconds"] >= 0.0

    def test_unknown_op_maps_to_stable_code(self, dispatcher):
        response = dispatcher.handle_wire({"op": "frobnicate"})
        assert not response["ok"]
        assert response["error"]["code"] == "protocol_unknown_op"

    def test_unknown_session_maps_to_stable_code(self, dispatcher):
        response = dispatcher.handle_wire(
            Request(op="drill", session="ghost").to_wire()
        )
        assert not response["ok"]
        assert response["error"]["code"] == "core_session"
        assert "ghost" in response["error"]["message"]

    def test_malformed_envelope_is_an_error_envelope_not_an_exception(self, dispatcher):
        response = dispatcher.handle_wire(["not", "an", "object"])
        assert not response["ok"]
        assert response["error"]["code"] == "protocol_wire_format"

    def test_malformed_tagged_params_yield_an_error_envelope(self, dispatcher):
        # Crafted params whose decoder would raise ValueError/TypeError
        # must still produce a response envelope, never crash the thread.
        response = dispatcher.handle_wire(
            {
                "op": "count",
                "params": {
                    "context": {
                        "$type": "segment",
                        "query": {"$type": "query", "predicates": []},
                        "count": "x",
                    }
                },
            }
        )
        assert not response["ok"]
        assert response["error"]["code"] == "protocol_wire_format"

    def test_newer_api_version_is_rejected(self, dispatcher):
        payload = Request(op="stats").to_wire()
        payload["api_version"] = API_VERSION + 1
        response = dispatcher.handle_wire(payload)
        assert not response["ok"]
        assert response["error"]["code"] == "protocol"

    def test_a_deeply_nested_context_is_a_wire_format_error(self, dispatcher):
        # Deeper than the decoder's recursion can follow: a typed envelope,
        # never a RecursionError out of a dispatcher that must not raise.
        # An object level costs the decoder two frames (from_wire and
        # _decode_mapping) on every Python version, so 700 levels pass the
        # default limit of 1 000 frames.
        context = "tonnage"
        for _ in range(700):
            context = {"a": context}
        response = dispatcher.handle_wire({"op": "count", "params": {"context": context}})
        assert not response["ok"]
        assert response["error"]["code"] == "protocol_wire_format"
        assert dispatcher.handle_wire({"op": "count", "params": {}})["result"] == 800

    def test_ingest_row_that_is_not_a_mapping_is_a_protocol_error(self, dispatcher):
        response = dispatcher.handle_wire(
            Request(op="ingest", params={"rows": [1, 2]}).to_wire()
        )
        assert not response["ok"]
        assert response["error"]["code"] == "protocol"
        assert "row mappings" in response["error"]["message"]

    @pytest.mark.parametrize(
        "predicate",
        [
            SetPredicate("type_of_boat", frozenset({None, "fluit"})),
            SetPredicate("type_of_boat", frozenset({None})),
            ExclusionPredicate("type_of_boat", frozenset({None})),
            ExclusionPredicate("type_of_boat", frozenset({None, "fluit"})),
            SetPredicate("departure_date", frozenset({None})),
            ExclusionPredicate("departure_date", frozenset({None})),
        ],
        ids=lambda predicate: predicate.to_sdl(),
    )
    def test_missing_literals_count_alike_on_every_backend(self, table, predicate):
        # A missing literal matches no row: SQLite drops it before rendering,
        # as the column store does, instead of failing to render NULL.
        with_missing = table.append_rows([{"tonnage": 500}] * 7)
        request = Request(op="count", params={"context": SDLQuery([predicate])})
        answers = []
        for backend in ("memory", "sqlite"):
            service = AdvisorService(with_missing, backend=backend, batch_window=0.0)
            response = Dispatcher(service).handle_wire(request.to_wire())
            assert response["ok"], response["error"]
            answers.append(response["result"])
        assert answers[0] == answers[1]


    def test_an_unknown_column_after_an_empty_range_is_a_typed_error(self):
        # The query binds to the table before any row is scanned, so the
        # empty range no longer hides the unknown column (SQLite never did).
        service = AdvisorService(Table.from_dict({"n": [1, 2, 3]}, name="t"), batch_window=0.0)
        request = Request(op="count", params={"context": "(n: [100, 200], nosuch: {1})"})
        response = Dispatcher(service).handle_wire(request.to_wire())
        assert not response["ok"]
        assert response["error"]["code"] == "storage_unknown_column"

    def test_ingest_of_an_out_of_range_integer_is_a_typed_error(self, dispatcher, service):
        # handle_wire never raises: the overflow comes back as an envelope.
        before = service.data_versions()["voc"]
        response = dispatcher.handle_wire(
            Request(op="ingest", params={"rows": [{"tonnage": 10**30}]}).to_wire()
        )
        assert not response["ok"]
        assert response["error"]["code"] == "storage_type_mismatch"
        assert service.data_versions()["voc"] == before


class TestSubmitValidation:
    """Regression tests: submit raises typed errors, never KeyError/TypeError."""

    def test_unknown_op_is_a_typed_error(self, service):
        response = service.submit(Request(op="frobnicate"))
        assert not response.ok
        assert response.error_code == "protocol_unknown_op"
        assert "advise" in response.error  # lists the known ops

    def test_unexpected_parameters_are_rejected(self, service):
        response = service.submit(
            Request(op="back", session="s", params={"bogus": 1})
        )
        assert not response.ok
        assert response.error_code == "protocol"
        assert "bogus" in response.error

    def test_non_integer_indexes_are_rejected(self, service):
        service.open_session("s1", context=_CONTEXT)
        for bad in ("0", 1.5, True, None):
            response = service.submit(
                Request(op="drill", session="s1", params={"answer_index": bad})
            )
            assert not response.ok, bad
            assert response.error_code == "protocol"
            assert "answer_index" in response.error

    def test_empty_session_name_is_rejected(self, service):
        for op in ("open_session", "advise", "drill", "back", "describe", "close_session"):
            response = service.submit(Request(op=op))
            assert not response.ok, op
            assert response.error_code == "protocol"

    def test_non_integer_max_answers_is_rejected(self, service):
        response = service.submit(
            Request(op="open_session", session="s9", params={"max_answers": "many"})
        )
        assert not response.ok
        assert response.error_code == "protocol"

    @pytest.mark.parametrize("context", [None, _CONTEXT])
    def test_negative_max_answers_is_rejected(self, dispatcher, context):
        params = {"max_answers": -1, "context": context}
        response = dispatcher.handle_wire(
            Request(op="open_session", session="s9", params=params).to_wire()
        )
        assert not response["ok"]
        assert response["error"]["code"] == "core_advisor"
        assert "max_answers" in response["error"]["message"]

    def test_errors_carry_timing_and_request_id(self, service):
        response = service.submit(Request(op="frobnicate", request_id="rq-1"))
        assert response.request_id == "rq-1"
        assert response.elapsed_seconds >= 0.0
