"""A wire-kind sweep built from the op table.

For every operation in :data:`OPERATIONS` and every parameter it accepts,
each value below is sent as that parameter's raw wire form, once without
a session and once addressed to an open session.  Whatever the value,
:meth:`Dispatcher.handle_wire` must answer with a response envelope: a
typed error or a result, never an exception (which over HTTP is a 500).
"""

from __future__ import annotations

import pytest

from repro.api.dispatcher import Dispatcher
from repro.api.protocol import OPERATIONS, Request
from repro.service import AdvisorService
from repro.workloads import generate_voc

#: Wire values of every kind the codec knows, well-formed or not.
_VALUES = {
    "null": None,
    "true": True,
    "zero": 0,
    "minus-one": -1,
    "float": 1.5,
    "empty-string": "",
    "string": "x",
    "empty-list": [],
    "int-list": [1, 2],
    "nested-list": [[1]],
    "empty-object": {},
    "dict-tag": {"$dict": []},
    "set-tag": {"$set": [1]},
    "nan": {"$float": "nan"},
}

_PARAMS = [
    (op, param)
    for op, operation in sorted(OPERATIONS.items())
    for param in sorted(operation.params)
]


@pytest.fixture(scope="module")
def dispatcher():
    return Dispatcher(AdvisorService(generate_voc(rows=120, seed=3)))


@pytest.mark.parametrize("value", list(_VALUES.values()), ids=list(_VALUES))
@pytest.mark.parametrize("op, param", _PARAMS, ids=[f"{op}-{param}" for op, param in _PARAMS])
def test_every_kind_of_value_gets_an_envelope(dispatcher, op, param, value):
    for session in ("", "sweep"):
        opened = dispatcher.handle_wire(
            Request(
                op="open_session",
                session="sweep",
                params={"context": ["tonnage", "type_of_boat"], "replace": True},
            ).to_wire()
        )
        assert opened["ok"], opened
        payload = Request(op=op, session=session).to_wire()
        payload["params"] = {param: value}
        reply = dispatcher.handle_wire(payload)
        assert isinstance(reply, dict) and isinstance(reply["ok"], bool), reply
