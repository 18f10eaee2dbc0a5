"""Hostile but well-framed requests: non-finite numbers, huge tagged
values, unknown envelope keys.

Each case goes through :meth:`Dispatcher.handle_wire` and through one
HTTP round trip.  The reply is always a typed error envelope or an
answer — never a 500 — and the server answers the next request.
"""

from __future__ import annotations

import json

import pytest

from repro.api.client import RemoteAdvisor
from repro.api.dispatcher import Dispatcher
from repro.api.server import AdvisorHTTPServer
from repro.service import AdvisorService
from repro.workloads import generate_voc

_ROWS = 500
_HUGE = 100_000


def _nan_range_context() -> dict:
    bound = {"$float": "nan"}
    range_predicate = {
        "$type": "range", "attribute": "tonnage", "low": bound, "high": 900,
        "include_low": True, "include_high": True,
    }
    return {"$type": "query", "predicates": [range_predicate]}


#: name → (raw JSON body, expected error code, or None for an answer).
_CASES = {
    "count-nan-context": (
        '{"op": "count", "params": {"context": NaN}}',
        "core_advisor",
    ),
    "open-session-infinite-max-answers": (
        '{"op": "open_session", "session": "edge", "params": '
        '{"context": ["tonnage"], "max_answers": Infinity}}',
        "protocol",
    ),
    "tagged-range-nan-bound": (
        json.dumps({"op": "count", "params": {"context": _nan_range_context()}}),
        "storage_type_mismatch",
    ),
    "huge-dict-context": (
        json.dumps({"op": "count", "params": {
            "context": {"$dict": [[f"k{i}", i] for i in range(_HUGE)]},
        }}),
        "core_advisor",
    ),
    "unknown-envelope-key": (
        json.dumps({"op": "count", "params": {}, "frobnicate": 1}),
        None,
    ),
    "huge-trip-set": (
        json.dumps({"op": "count", "params": {
            "context": "trip: {" + ", ".join(map(str, range(_HUGE))) + "}",
        }}),
        None,
    ),
}


@pytest.fixture(scope="module")
def service():
    return AdvisorService(generate_voc(rows=_ROWS, seed=1), batch_window=0.0)


@pytest.fixture(scope="module")
def server(service):
    with AdvisorHTTPServer(service, port=0) as running:
        yield running


def _check(reply: dict, code) -> None:
    assert isinstance(reply, dict) and isinstance(reply["ok"], bool), reply
    if code is None:
        assert reply["ok"] is True, reply
        assert isinstance(reply["result"], int)
    else:
        assert reply["ok"] is False
        assert reply["error"]["code"] == code, reply["error"]
        assert reply["error"]["message"]


@pytest.mark.parametrize("name", list(_CASES))
def test_handle_wire_answers_with_an_envelope(service, name):
    body, code = _CASES[name]
    dispatcher = Dispatcher(service)
    _check(dispatcher.handle_wire(json.loads(body)), code)
    after = dispatcher.handle_wire({"op": "count", "params": {}})
    assert after["ok"] is True and after["result"] == _ROWS


@pytest.mark.parametrize("name", list(_CASES))
def test_one_http_round_trip_answers_and_the_server_answers_on(server, name):
    body, code = _CASES[name]
    client = RemoteAdvisor(server.url)
    try:
        status, data = client._http_once("POST", "/v1/rpc", body.encode())
        assert status == 200, data[:200]
        _check(json.loads(data), code)
        assert client.count() == _ROWS
    finally:
        client.close()
