"""The op table is the only statement of each wire operation.

``repro.api.protocol.OPERATIONS`` drives request validation and cluster
routing directly, so those cannot drift.  What still lives elsewhere —
one ``_op_<name>`` handler per op on the service, one client method per
op that a program calls, the table in ``docs/api.md`` — is held to the
table here, at run time.
"""

import inspect
import json
import pathlib
import re

import pytest

from repro.api.client import RemoteAdvisor, RemoteSession
from repro.api.dispatcher import Dispatcher
from repro.api.protocol import OPERATIONS, PARAM_KINDS, Operation, Request, Response
from repro.cluster.router import ClusterRouter
from repro.service import AdvisorService
from repro.workloads import generate_voc

API_DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "api.md"


# -- (a) one service handler per op ----------------------------------------------


def _handler_ops():
    return {
        name[len("_op_"):] for name in vars(AdvisorService) if name.startswith("_op_")
    }


def test_service_handlers_are_exactly_the_op_table():
    assert _handler_ops() == set(OPERATIONS)


# -- (b) the client surface reaches every op, and only ops ------------------------

#: A result every client method can digest (``describe``-shaped).
_RESULT = {
    "table": "voc",
    "depth": 0,
    "data_version": 1,
    "stale": False,
    "breadcrumbs": [],
    "text": "",
    "stats": {},
}

#: Values for the required arguments of the public client methods.
_ARGUMENTS = {"name": "s", "answer_index": 0, "segment_index": 0}

#: Public methods that are the transport itself: they send whatever op
#: (or GET path) the caller hands them rather than naming one.
_TRANSPORT = {"rpc", "forward", "call"}

#: Ops no program calls through a named client method: an operator reads
#: them with ``charles call --op <name>``, which sends them through ``call``.
_CALL_ONLY = {"slow_ops"}


class _RecordingAdvisor(RemoteAdvisor):
    """A client whose HTTP layer records ops instead of opening sockets."""

    def __init__(self):
        super().__init__("http://stub.invalid")
        self.ops = []

    def _http(self, method, path, body=None):
        if body is None:
            return {"tables": ["voc"], "metrics": {}}
        op = json.loads(body)["op"]
        self.ops.append(op)
        return Response(ok=True, op=op, result=_RESULT).to_wire()


def _drive_public_surface(cls, instance):
    for name, member in vars(cls).items():
        if name.startswith("_") or name in _TRANSPORT:
            continue
        if isinstance(member, property):
            getattr(instance, name)
            continue
        required = [
            parameter.name
            for parameter in inspect.signature(member).parameters.values()
            if parameter.default is parameter.empty and parameter.name != "self"
        ]
        getattr(instance, name)(*(_ARGUMENTS[argument] for argument in required))


def _client_ops():
    advisor = _RecordingAdvisor()
    _drive_public_surface(RemoteAdvisor, advisor)
    _drive_public_surface(RemoteSession, RemoteSession(advisor, "s"))
    return set(advisor.ops)


def test_client_methods_issue_exactly_the_op_table():
    assert _CALL_ONLY <= set(OPERATIONS)
    assert _client_ops() == set(OPERATIONS) - _CALL_ONLY


def test_an_entry_without_handler_or_client_method_is_caught(monkeypatch):
    monkeypatch.setitem(OPERATIONS, "teleport", Operation({}, "table"))
    assert _handler_ops() != set(OPERATIONS)
    assert _client_ops() != set(OPERATIONS)


# -- (c) the table only uses routes and kinds the readers know --------------------


@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_entry_is_well_formed(op):
    entry = OPERATIONS[op]
    assert callable(getattr(ClusterRouter, f"_route_{entry.route}", None))
    assert set(entry.params.values()) <= set(PARAM_KINDS)


# -- (d) validation comes from the table, on both entry points ---------------------

_SESSION_OPS = sorted(op for op, entry in OPERATIONS.items() if entry.route == "session")

_INVALID = [
    # (op, session, params, error code)
    ("drill", "s", {"answer_index": True}, "protocol"),
    ("drill", "s", {"answer_index": "0"}, "protocol"),
    ("drill", "s", {"segment_index": 1.5}, "protocol"),
    ("drill", "s", {"answer_index": None}, "protocol"),
    ("open_session", "s", {"max_answers": True}, "protocol"),
    ("open_session", "s", {"max_answers": "many"}, "protocol"),
    ("open_session", "s", {"table": 5}, "protocol"),
    ("open_session", "s", {"replace": "no"}, "protocol"),
    ("advise", "s", {"mode": 3}, "protocol"),
    ("advise", "s", {"refresh": "false"}, "protocol"),
    ("slow_ops", "", {"limit": True}, "protocol"),
    ("slow_ops", "", {"limit": "three"}, "protocol"),
    ("back", "s", {"bogus": 1}, "protocol"),
    ("count", "", {"context": None, "tabel": "voc"}, "protocol"),
    *[(op, "", {}, "protocol") for op in _SESSION_OPS],
    # The pre-wire spellings are gone: plain unknown operations now.
    ("open", "s", {}, "protocol_unknown_op"),
    ("close", "s", {}, "protocol_unknown_op"),
    ("frobnicate", "", {}, "protocol_unknown_op"),
]


@pytest.fixture(scope="module")
def service():
    service = AdvisorService(generate_voc(rows=300, seed=3), batch_window=0.0)
    service.open_session("s", context=["tonnage", "type_of_boat"])
    return service


@pytest.mark.parametrize("op, session, params, code", _INVALID)
def test_invalid_requests_get_the_same_typed_error_on_both_paths(
    service, op, session, params, code
):
    response = service.submit(Request(op=op, session=session, params=params))
    assert not response.ok
    assert response.error_code == code
    envelope = {"op": op, "session": session, "request_id": "r", "params": params}
    reply = Dispatcher(service).handle_wire(envelope)
    assert not reply["ok"]
    assert reply["error"]["code"] == code
    assert reply["error"]["message"] == response.error


def test_a_non_string_op_is_a_protocol_error_on_the_wire(service):
    reply = Dispatcher(service).handle_wire({"op": 7, "params": {}})
    assert reply["error"]["code"] == "protocol"


def test_null_means_not_given(service):
    params = {"table": None, "context": None, "max_answers": None, "replace": None}
    assert service.submit(Request(op="open_session", session="n", params=params)).ok
    params = {"context": None, "current": None, "refresh": None, "mode": None}
    assert service.submit(Request(op="advise", session="n", params=params)).ok
    assert service.submit(Request(op="slow_ops", params={"limit": None})).ok
    assert service.submit(Request(op="close_session", session="n")).ok


# -- (e) docs/api.md lists the table ---------------------------------------------


def _documented_operations():
    section = API_DOC.read_text(encoding="utf-8").split("## Operations", 1)[1]
    documented = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        match = re.fullmatch(r"`(\w+)`", cells[1]) if len(cells) > 3 else None
        if match is not None:
            documented[match.group(1)] = set(re.findall(r"`(\w+)\??`", cells[2]))
    return documented


def test_api_doc_lists_exactly_the_ops_and_params_of_the_table():
    expected = {op: set(entry.params) for op, entry in OPERATIONS.items()}
    assert _documented_operations() == expected
