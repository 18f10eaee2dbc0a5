"""The server's HTTP/1.1 framing, spoken to over raw sockets.

No HTTP library sits between these tests and ``_Handler``: each one writes
bytes to a socket and parses what comes back, so they pin the framing
itself — every transport rejection is a JSON error envelope with
``Connection: close``, ``Expect: 100-continue`` is answered before the
body is sent, pipelined requests are answered in order, HTTP/1.0 keeps a
connection only when asked to — and the fuzz test feeds the handler
sloppy and hostile byte streams built from fragments.  Every connection
ends in well-formed replies or a quiet close within the (shortened)
socket timeout, and no handler thread outlives the test.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api.server as server_module
from repro.api.server import AdvisorHTTPServer
from repro.service import AdvisorService
from repro.workloads import generate_voc

_ROWS = 60

Reply = Tuple[int, Dict[str, str], bytes]


@pytest.fixture(scope="module")
def server():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_module, "SOCKET_TIMEOUT_SECONDS", 0.2)
        service = AdvisorService(generate_voc(rows=_ROWS, seed=1), batch_window=0.0)
        with AdvisorHTTPServer(service, port=0) as running:
            yield running


def _rpc(request_id: str, op: str = "count") -> bytes:
    body = json.dumps({"api_version": 1, "op": op, "request_id": request_id, "params": {}})
    return (
        f"POST /v1/rpc HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n{body}"
    ).encode()


def _parse(data: bytes) -> Tuple[List[Reply], bytes]:
    """The complete replies at the front of ``data``, and what is left over."""
    replies: List[Reply] = []
    while b"\r\n\r\n" in data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        version, status, _ = lines[0].split(" ", 2)
        assert version == "HTTP/1.1", lines[0]
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if 100 <= int(status) < 200:
            data = rest
            continue
        length = int(headers["content-length"])
        if len(rest) < length:
            break
        replies.append((int(status), headers, rest[:length]))
        data = rest[length:]
    return replies, data


def _converse(server, payload: bytes, deadline: float = 3.0) -> Tuple[List[Reply], bytes, bool]:
    """Send ``payload`` in one go, read until the server closes.

    Returns the replies, any unparsed tail, and whether the connection
    ended in a reset (a close with our bytes still unread) rather than a
    clean end of stream.  Fails when the server has not closed within
    ``deadline`` seconds.
    """
    reset = False
    received = b""
    with socket.create_connection((server.host, server.port)) as raw:
        raw.settimeout(deadline)
        started = time.monotonic()
        try:
            raw.sendall(payload)
        except OSError:
            reset = True  # the server answered and closed before reading it all
        while True:
            try:
                chunk = raw.recv(65536)
            except (ConnectionResetError, BrokenPipeError):
                reset = True
                break
            if not chunk:
                break
            received += chunk
        assert time.monotonic() - started < deadline
    replies, tail = _parse(received)
    return replies, tail, reset


def _read_reply(raw: socket.socket) -> Reply:
    """Read one whole reply, skipping interim ones; fail on a close."""
    received = b""
    while not _parse(received)[0]:
        chunk = raw.recv(65536)
        assert chunk, "the server closed the connection without replying"
        received += chunk
    replies, tail = _parse(received)
    assert len(replies) == 1 and tail == b""
    return replies[0]


def _envelope(reply: Reply) -> dict:
    status, headers, body = reply
    assert headers["content-type"].startswith("application/json")
    return json.loads(body)


# -- every transport rejection is an envelope ----------------------------------


@pytest.mark.parametrize(
    "sent, status",
    [
        pytest.param(b"HEAD /v1/health HTTP/1.1\r\n\r\n", 405, id="head"),
        pytest.param(b"PATCH /v1/rpc HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 405, id="patch"),
        pytest.param(b"OPTIONS * HTTP/1.1\r\n\r\n", 405, id="options"),
        pytest.param(b"PUT /v1/rpc HTTP/1.1\r\n\r\n", 405, id="put"),
        pytest.param(b"GARBAGE\r\n\r\n", 400, id="malformed-request-line"),
        pytest.param(b"GET /v1/health HTTP/2.0\r\n\r\n", 505, id="http-2"),
        pytest.param(b"GET /v1/health HTTP/1.1\r\nno colon here\r\n\r\n", 400,
                     id="malformed-header"),
        pytest.param(b"GET /v1/health HTTP/1.1\r\n folded: line\r\n\r\n", 400,
                     id="folded-header"),
        pytest.param(b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n", 414,
                     id="long-request-line"),
        pytest.param(b"GET /v1/health HTTP/1.1\r\nX-Long: " + b"x" * 70_000 + b"\r\n\r\n", 431,
                     id="long-header-line"),
        pytest.param(b"GET /v1/health HTTP/1.1\r\n" + b"X-A: 1\r\n" * 101 + b"\r\n", 431,
                     id="too-many-headers"),
        pytest.param(b"POST /v1/rpc HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400,
                     id="negative-length"),
        pytest.param(b"POST /v1/rpc HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
                     400, id="duplicated-length"),
        pytest.param(b"POST /v1/rpc HTTP/1.1\r\n\r\n", 411, id="no-length"),
    ],
)
def test_a_rejection_is_an_envelope_and_ends_the_connection(server, sent, status):
    replies, tail, _ = _converse(server, sent)
    assert [reply[0] for reply in replies] == [status] and tail == b""
    assert replies[0][1]["connection"] == "close"
    envelope = _envelope(replies[0])
    assert envelope["ok"] is False and envelope["error"]["code"] == "protocol"
    assert envelope["error"]["message"]


def _nested_rpc(depth: int) -> bytes:
    """A ``count`` request whose context is ``"tonnage"`` inside ``depth``
    objects (two decoder frames a level on every Python version)."""
    body = b'{"op": "count", "params": {"context": ' + b'{"a": ' * depth + b'"tonnage"'
    body += b"}" * depth + b"}}"
    head = b"POST /v1/rpc HTTP/1.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
    return head % len(body) + body


def test_deep_nesting_is_a_wire_format_error_and_the_server_answers_on(server):
    # 50 000 levels (300 KB, far under the body cap) defeat the JSON parser:
    # a 400 envelope, not a dropped connection.
    replies, _, _ = _converse(server, _nested_rpc(50_000))
    assert [reply[0] for reply in replies] == [400]
    assert _envelope(replies[0])["error"]["code"] == "protocol_wire_format"
    # 700 levels parse, but defeat the envelope decoder: a 200 error envelope.
    replies, _, _ = _converse(server, _nested_rpc(700))
    assert [reply[0] for reply in replies] == [200]
    assert _envelope(replies[0])["error"]["code"] == "protocol_wire_format"
    closing = _rpc("after").replace(b"\r\n", b"\r\nConnection: close\r\n", 1)
    replies, _, _ = _converse(server, closing)
    assert [reply[0] for reply in replies] == [200]
    assert _envelope(replies[0])["result"] == _ROWS


@pytest.mark.parametrize("length", ["", "Content-Length: 4\r\n"], ids=["alone", "with-length"])
def test_a_chunked_post_is_411_naming_content_length(server, length):
    # With both fields, Content-Length must not frame the chunks either.
    body = _rpc("c").split(b"\r\n\r\n", 1)[1]
    chunked = (
        f"POST /v1/rpc HTTP/1.1\r\n{length}Transfer-Encoding: chunked\r\n\r\n".encode()
        + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
    )
    replies, _, _ = _converse(server, chunked)
    assert [reply[0] for reply in replies] == [411]
    assert "Content-Length" in _envelope(replies[0])["error"]["message"]


def test_expect_100_continue_is_answered_before_the_body(server):
    head, _, body = _rpc("e").partition(b"\r\n\r\n")
    with socket.create_connection((server.host, server.port)) as raw:
        raw.settimeout(0.5)
        raw.sendall(head + b"\r\nExpect: 100-continue\r\n\r\n")
        interim = raw.recv(65536)  # a timeout here fails the test
        assert interim.startswith(b"HTTP/1.1 100")
        raw.settimeout(5.0)
        raw.sendall(body)
        reply = _read_reply(raw)
    assert reply[0] == 200 and _envelope(reply)["result"] == _ROWS


def test_pipelined_requests_are_answered_in_order(server):
    ids = [f"p{index}" for index in range(5)]
    payload = b"".join(_rpc(request_id) for request_id in ids)
    payload += b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n"
    replies, tail, reset = _converse(server, payload)
    assert not reset and tail == b""
    assert [reply[0] for reply in replies] == [200] * 6
    assert [_envelope(reply).get("request_id") for reply in replies[:5]] == ids
    assert _envelope(replies[5])["status"] == "ok"
    assert replies[5][1]["connection"] == "close"


@pytest.mark.parametrize(
    "connection, kept",
    [("", False), ("Connection: keep-alive\r\n", True)],
    ids=["close", "keep-alive"],
)
def test_http_1_0_keeps_a_connection_only_when_asked(server, connection, kept):
    request = f"GET /v1/health HTTP/1.0\r\n{connection}\r\n".encode()
    with socket.create_connection((server.host, server.port)) as raw:
        raw.settimeout(5.0)
        raw.sendall(request)
        assert _read_reply(raw)[1]["connection"] == ("keep-alive" if kept else "close")
        if kept:  # a second request on the same connection is answered
            raw.sendall(request)
            assert _read_reply(raw)[0] == 200
        else:
            assert raw.recv(65536) == b""


# -- the fuzz ---------------------------------------------------------------------

_BODY = b'{"api_version": 1, "op": "count", "params": {}}'

#: Fragment kind → a function of a drawn integer building its bytes.  The
#: valid requests carry request ids, so the order of replies can be checked.
_FRAGMENTS = {
    "rpc": lambda n: _rpc(f"f{n}"),
    "health": lambda n: b"GET /v1/health HTTP/1.1\r\n\r\n",
    "expect": lambda n: (
        b"POST /v1/rpc HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: "
        + str(len(_BODY)).encode() + b"\r\n\r\n" + _BODY
    ),
    "truncated-body": lambda n: (
        b"POST /v1/rpc HTTP/1.1\r\nContent-Length: " + str(len(_BODY)).encode()
        + b"\r\n\r\n" + _BODY[: n % len(_BODY)]
    ),
    "length-too-large": lambda n: (
        b"POST /v1/rpc HTTP/1.1\r\nContent-Length: " + str(len(_BODY) + 1 + n % 50).encode()
        + b"\r\n\r\n" + _BODY
    ),
    "length-too-small": lambda n: (
        b"POST /v1/rpc HTTP/1.1\r\nContent-Length: " + str(n % len(_BODY)).encode()
        + b"\r\n\r\n" + _BODY
    ),
    "negative-length": lambda n: b"POST /v1/rpc HTTP/1.1\r\nContent-Length: -%d\r\n\r\n" % n,
    "non-numeric-length": lambda n: (
        b"POST /v1/rpc HTTP/1.1\r\nContent-Length: " + [b"ten", b"1e3", b"+5", b" ", b"0x10"][n % 5]
        + b"\r\n\r\n" + _BODY
    ),
    "duplicated-length": lambda n: (
        b"POST /v1/rpc HTTP/1.1\r\nContent-Length: %d\r\nContent-Length: %d\r\n\r\n"
        % (len(_BODY), len(_BODY) + n % 3) + _BODY
    ),
    "nul": lambda n: [
        b"GET /v1/he\x00alth HTTP/1.1\r\n\r\n",
        b"GET /v1/health HTTP/1.1\r\nX-Nul: a\x00b\r\n\r\n",
        b"POST /v1/rpc HTTP/1.1\r\nContent-Length: 3\r\n\r\n\x00\x00\x00",
        b"\x00" * (1 + n % 64),
    ][n % 4],
    "many-headers": lambda n: b"GET /v1/health HTTP/1.1\r\n" + b"X-H: v\r\n" * 10_000 + b"\r\n",
    "huge-header-line": lambda n: (
        b"GET /v1/health HTTP/1.1\r\nX-Big: " + b"x" * 1_000_000 + b"\r\n\r\n"
    ),
    "http-1.0": lambda n: b"GET /v1/health HTTP/1.0\r\n\r\n",
    "http-1.0-keep-alive": lambda n: b"GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    "bad-json": lambda n: b"POST /v1/rpc HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope",
    "unknown-method": lambda n: b"BREW /v1/rpc HTTP/1.1\r\n\r\n",
    "blank-line": lambda n: b"\r\n",
}


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
          deadline=None)
@given(
    fragments=st.lists(
        st.tuples(st.sampled_from(sorted(_FRAGMENTS)), st.integers(0, 10_000)),
        min_size=1,
        max_size=4,
    ),
    garbage=st.binary(max_size=32),
)
def test_any_byte_stream_ends_in_replies_or_a_quiet_close(server, capfd, fragments, garbage):
    before = set(threading.enumerate())
    payload = b"".join(_FRAGMENTS[kind](n) for kind, n in fragments) + garbage
    sent_ids = [f"f{n}" for kind, n in fragments if kind == "rpc"]
    # The whole stream goes out in one write: fragments are pipelined.
    replies, tail, reset = _converse(server, payload)
    assert reset or tail == b"", tail[:200]
    seen_ids = []
    for reply in replies:
        status = reply[0]
        assert status < 500
        envelope = _envelope(reply)
        if status >= 400:
            assert envelope["ok"] is False and envelope["error"]["code"].startswith("protocol")
            assert reply[1]["connection"] == "close" and reply is replies[-1]
        elif "request_id" in envelope and envelope["request_id"] in sent_ids:
            seen_ids.append(envelope["request_id"])
    # Answered in the order sent, and an unanswered request ends the answers.
    assert seen_ids == sent_ids[: len(seen_ids)]
    deadline = time.monotonic() + 2.0
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not set(threading.enumerate()) - before, "a handler thread outlived its connection"
    assert capfd.readouterr().err == ""
