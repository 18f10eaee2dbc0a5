"""End-to-end tests: HTTP server + RemoteAdvisor vs in-process sessions.

The acceptance bar of the wire API redesign: a remote exploration and a
local one over the same table produce **identical advice** — same
answers, same order, same scores — proven byte-for-byte on the canonical
wire text.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.api.server as server_module
from repro.api.codec import dumps
from repro.api.client import RemoteAdvisor
from repro.api.server import AdvisorHTTPServer
from repro.errors import (
    ProtocolError,
    RemoteError,
    SessionError,
    TypeMismatchError,
    UnknownOperationError,
)
from repro.service import AdvisorService
from repro.workloads import generate_voc

_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]
_ROWS, _SEED = 900, 23


@pytest.fixture(scope="module")
def server():
    service = AdvisorService(generate_voc(rows=_ROWS, seed=_SEED), batch_window=0.0)
    with AdvisorHTTPServer(service, port=0) as running:
        yield running


@pytest.fixture()
def client(server):
    return RemoteAdvisor(server.url)


def _answers_wire(advice):
    """Canonical bytes of what the user sees: context + ranked answers.

    Timing fields (trace runtime, engine operation counters) legitimately
    differ between runs and are excluded from the parity comparison.
    """
    return dumps({"context": advice.context, "answers": advice.answers})


class TestRemoteLocalParity:
    def test_multi_step_exploration_is_byte_identical(self, client):
        # The same multi-step exploration — advise, drill into the best
        # answer's first segment, advise again, back — executed in-process
        # and over HTTP against identically generated tables.
        local_service = AdvisorService(
            generate_voc(rows=_ROWS, seed=_SEED), batch_window=0.0
        )
        local = local_service.open_session("probe")
        remote = client.open_session("probe")

        local_steps = [local.advise(_CONTEXT), local.drill(0, 1), local.back()]
        remote_steps = [remote.advise(_CONTEXT), remote.drill(0, 1), remote.back()]

        for step, (mine, theirs) in enumerate(zip(local_steps, remote_steps)):
            assert _answers_wire(mine) == _answers_wire(theirs), f"step {step} diverged"
        # The navigation state mirrors too.
        assert remote.depth == local.depth
        assert remote.breadcrumbs() == local.breadcrumbs()
        remote.close()
        local_service.close_session("probe")

    def test_remote_session_surface_matches_service_session(self, client):
        remote = client.open_session("alice", context=_CONTEXT)
        assert remote.table_name == "voc"
        assert remote.depth == 0
        assert remote.breadcrumbs() == ["(root)"]
        assert "session 'alice'" in remote.describe()
        stats = remote.stats()
        assert stats["name"] == "alice" and stats["requests"] >= 1
        advice = remote.current_advice()
        assert advice is not None and advice.answers
        remote.close()

    def test_current_advice_is_none_before_first_advise(self, client):
        remote = client.open_session("fresh")
        assert remote.current_advice() is None
        remote.close()


class TestRemoteErrors:
    def test_unknown_session_raises_typed_session_error(self, client):
        with pytest.raises(SessionError) as excinfo:
            client.session("nobody")
        assert "nobody" in str(excinfo.value)

    def test_out_of_range_drill_raises_session_error(self, client):
        remote = client.open_session("bob", context=_CONTEXT)
        with pytest.raises(SessionError) as excinfo:
            remote.drill(99, 0)
        # The code appears exactly once: the wire message is bare prose
        # and only the rebuilt exception's str() appends it.
        assert str(excinfo.value).count("[core_session]") == 1
        remote.close()

    def test_unknown_op_raises_typed_protocol_error(self, client):
        with pytest.raises(UnknownOperationError):
            client.call("frobnicate")

    def test_bad_parameter_raises_protocol_error(self, client):
        remote = client.open_session("carol", context=_CONTEXT)
        with pytest.raises(ProtocolError):
            remote.drill("zero", 0)
        remote.close()

    def test_ingest_row_that_is_not_a_mapping_raises_protocol_error(self, client):
        # Not a 500 "internal": the row is the caller's mistake.
        version = client.health()["data_versions"]["voc"]
        with pytest.raises(ProtocolError, match="row mappings"):
            client.ingest(rows=[1, 2])
        assert client.health()["data_versions"]["voc"] == version

    def test_ingest_of_an_out_of_range_integer_raises_type_mismatch(self, client):
        # Not a 500 "internal": the value is the caller's mistake.
        version = client.health()["data_versions"]["voc"]
        with pytest.raises(TypeMismatchError, match="out of range"):
            client.ingest(rows=[{"tonnage": 10**30}])
        assert client.health()["data_versions"]["voc"] == version

    def test_unreachable_server_raises_remote_error(self):
        unreachable = RemoteAdvisor("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(RemoteError):
            unreachable.health()


class TestHTTPEndpoints:
    def test_health_document(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["tables"] == ["voc"]
        assert "advise" in health["operations"]

    def test_health_document_identifies_the_node(self, client, server):
        # The cluster router's health probes key off these fields: node
        # identity (restart detection) and per-table data versions
        # (stale-replica detection).
        health = client.health()
        assert health["node"]["node_id"] == server.node_id
        assert health["node"]["pid"] > 0
        assert health["node"]["started_at"] > 0
        assert health["data_versions"].keys() == {"voc"}
        assert isinstance(health["data_versions"]["voc"], int)

    def test_stats_document(self, client):
        stats = client.stats()
        assert "voc" in stats["tables"]
        assert stats["requests"] >= 0

    def test_unknown_path_is_404_with_error_envelope(self, server):
        request = urllib.request.Request(f"{server.url}/v2/nope")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "protocol"

    def test_bad_json_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/rpc", data=b"{broken", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "protocol_wire_format"

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/rpc", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_concurrent_remote_sessions_share_the_advice_cache(self, server, client):
        before = client.stats()["tables"]["voc"]["advice_cache"]["hits"]
        first = client.open_session("u1", context=_CONTEXT)
        second = client.open_session("u2", context=_CONTEXT)
        after = client.stats()["tables"]["voc"]["advice_cache"]["hits"]
        assert after > before  # the second session was served from cache
        first.close()
        second.close()


class TestKeepAlive:
    def test_third_party_keep_alive_client_is_not_stalled(self, server, client):
        # A reply that leaves in two segments costs a keep-alive client
        # ~40 ms per request (Nagle's algorithm against the delayed ACK):
        # this is what ``curl`` or a browser sees, not only RemoteAdvisor.
        session = client.open_session("keepalive", context=_CONTEXT)
        session.advise(_CONTEXT)
        body = json.dumps(
            {"api_version": 1, "op": "advise", "session": "keepalive",
             "params": {"current": True}}
        )
        plain = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
        round_trips = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                plain.request("POST", "/v1/rpc", body=body,
                              headers={"Content-Type": "application/json"})
                reply = plain.getresponse().read()
                round_trips.append(time.perf_counter() - started)
                assert len(reply) >= 10_000 and json.loads(reply)["ok"]
        finally:
            plain.close()
            session.close()
        assert statistics.median(round_trips) < 0.020

    def test_rejected_request_ends_its_connection(self, server):
        # The body of a request rejected on its headers is never read; the
        # connection must not be parsed on from the middle of it.
        plain = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
        try:
            plain.request("POST", "/v2/nope", body=b'{"op": "count"}')
            reply = plain.getresponse()
            assert reply.status == 404 and reply.will_close
            assert json.loads(reply.read())["error"]["code"] == "protocol"
        finally:
            plain.close()


class TestSocketBounds:
    """A client that stops talking gives its handler thread back."""

    @pytest.fixture()
    def impatient(self, monkeypatch):
        monkeypatch.setattr(server_module, "SOCKET_TIMEOUT_SECONDS", 0.2)
        service = AdvisorService(generate_voc(rows=60, seed=1), batch_window=0.0)
        with AdvisorHTTPServer(service, port=0) as running:
            yield running

    @pytest.mark.parametrize(
        "sent",
        [
            b"",
            b"POST /v1/rpc HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789",
            b"GET /v1/health HTTP/1.1\r\n\r\n",  # answered, then parked
        ],
        ids=["nothing", "half-a-body", "parked-keep-alive"],
    )
    def test_stalled_connection_is_closed_quietly(self, impatient, capfd, sent):
        baseline = threading.active_count()
        with socket.create_connection((impatient.host, impatient.port)) as raw:
            raw.settimeout(5.0)
            raw.sendall(sent)
            started = time.monotonic()
            received = b""
            while True:  # the server's close ends the loop; a hang times out
                chunk = raw.recv(65536)
                if not chunk:
                    break
                received += chunk
            assert time.monotonic() - started < 2.0
        # No 500 (no reply at all to a request that never arrived) …
        assert received == b"" or received.startswith(b"HTTP/1.1 200")
        deadline = time.monotonic() + 2.0
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= baseline
        # … and not a line on stderr.
        assert capfd.readouterr().err == ""
