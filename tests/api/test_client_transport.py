"""Transport knobs of :class:`RemoteAdvisor` and the degraded wire bit.

The cluster router leans on two client-layer contracts proven here:

* connection-level failures surface as :class:`RemoteTransportError`
  (wire code ``remote_unreachable``) after the configured retry budget —
  that exact exception class is the router's "mark the node dead and
  fail over" signal, so it must never be raised for a server that
  *answered* with an error;
* ``Advice.degraded`` survives the codec round-trip, and payloads from
  pre-cluster servers (no ``degraded`` key) decode to ``False``.
"""

from __future__ import annotations

import dataclasses
import functools
import http.client
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import repro.api.client as client_module
import repro.api.server as server_module
from repro.api.client import BACKOFF_SECONDS, RemoteAdvisor
from repro.api.server import AdvisorHTTPServer
import json

from repro.api.codec import SCHEMA_VERSION, from_wire, loads, to_wire


def dumps_payload(payload):
    """Wrap an already-encoded payload in the schema envelope."""
    return json.dumps({"schema": SCHEMA_VERSION, "data": payload}, sort_keys=True)
from repro.errors import RemoteError, RemoteTransportError
from repro.service import AdvisorService
from repro.workloads import generate_voc


class TestTransportErrors:
    def test_unreachable_server_raises_transport_error(self):
        client = RemoteAdvisor("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(RemoteTransportError) as excinfo:
            client.health()
        assert excinfo.value.code == "remote_unreachable"
        # Transport failures are still RemoteErrors: callers that predate
        # the split keep catching them.
        assert isinstance(excinfo.value, RemoteError)

    def test_error_message_counts_the_attempts(self):
        client = RemoteAdvisor("http://127.0.0.1:9", timeout=0.5, retries=2)
        with pytest.raises(RemoteTransportError) as excinfo:
            client.health()
        assert "after 3 attempt(s)" in str(excinfo.value)

    def test_zero_retries_is_a_single_attempt(self):
        client = RemoteAdvisor("http://127.0.0.1:9", timeout=0.5, retries=0)
        with pytest.raises(RemoteTransportError) as excinfo:
            client.health()
        assert "after 1 attempt(s)" in str(excinfo.value)

    def test_backoff_spaces_the_attempts(self):
        client = RemoteAdvisor("http://127.0.0.1:9", timeout=0.5, retries=2)
        started = time.monotonic()
        with pytest.raises(RemoteTransportError):
            client.health()
        # Two sleeps between three attempts: 0.05 + 0.1 (doubling).
        assert time.monotonic() - started >= 3 * BACKOFF_SECONDS

    def test_http_error_replies_are_never_retried(self):
        # A server that *answers* — even with a 500 — is not a transport
        # failure: no retry, no RemoteTransportError.
        hits = []

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                hits.append(self.path)
                body = b'{"error": {"code": "boom", "message": "no"}}'
                self.send_response(500)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # keep the test output quiet
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            client = RemoteAdvisor(
                f"http://127.0.0.1:{httpd.server_port}", timeout=5.0, retries=3
            )
            with pytest.raises(RemoteError) as excinfo:
                client.health()
            assert not isinstance(excinfo.value, RemoteTransportError)
            assert len(hits) == 1
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5.0)


class TestDegradedWireBit:
    @pytest.fixture(scope="class")
    def advice(self):
        service = AdvisorService(generate_voc(rows=80, seed=3), batch_window=0.0)
        return service.open_session("probe").advise(["type_of_boat", "tonnage"])

    def test_degraded_round_trips_both_ways(self, advice):
        for flag in (False, True):
            flagged = dataclasses.replace(advice, degraded=flag)
            assert from_wire(to_wire(flagged)).degraded is flag

    def test_legacy_payload_without_the_key_decodes_false(self, advice):
        payload = to_wire(advice)
        del payload["degraded"]
        assert from_wire(payload).degraded is False

    def test_router_flagging_pattern_survives_serialisation(self, advice):
        # The router mutates the *wire* payload (result["degraded"] =
        # True) rather than the dataclass; prove that path decodes.
        payload = to_wire(advice)
        payload["degraded"] = True
        assert loads(dumps_payload(payload)).degraded is True


def _http_counts(server):
    """(connections accepted, requests answered), as ``/v1/metrics`` reports them."""
    rows = {
        row["name"]: row["value"]
        for row in server.service.metrics_document()["counters"]
        if row["labels"].get("front") == "node"
    }
    return rows["http_connections_accepted_total"], rows["http_requests_total"]


def _service():
    return AdvisorService(generate_voc(rows=80, seed=3), batch_window=0.0)


class _SilentServer:
    """Reads each request in full, then closes without replying."""

    def __init__(self):
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            with connection:
                data = b""
                while b"\r\n\r\n" not in data:
                    data += connection.recv(65536)
                head, _, body = data.partition(b"\r\n\r\n")
                length = int(
                    [line.split(b":")[1] for line in head.split(b"\r\n")
                     if line.lower().startswith(b"content-length")][0]
                )
                while len(body) < length:
                    body += connection.recv(65536)
                self.requests.append(body)

    def close(self):
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self._listener.close()
        self._thread.join(timeout=5.0)


class TestConnectionLifecycle:
    def test_sequential_calls_share_one_connection(self):
        with AdvisorHTTPServer(_service(), port=0) as server:
            client = RemoteAdvisor(server.url)
            metrics_text = functools.partial(client._exchange, "GET", "/v1/metrics")
            for index in range(50):
                # Both verbs, JSON and plain text: one transport for all.
                (client.count, client.health, metrics_text)[index % 3]()
            accepted, requests = _http_counts(server)
            assert accepted == 1
            assert requests == 50

    @pytest.mark.parametrize("workers", [2, 8])
    def test_threads_sharing_a_client_never_share_a_connection(self, workers):
        # More threads than cores, switching as often as the interpreter
        # allows: a connection handed to two threads at once would mix
        # their replies up (wrong counts, broken framing) or lose one.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with AdvisorHTTPServer(_service(), port=0) as server:
                client = RemoteAdvisor(server.url)
                failures = []

                def hammer(worker):
                    try:
                        for _ in range(25):
                            context = f"tonnage >= {worker}"
                            assert client.count(context) == expected[worker]
                    except BaseException as exc:  # noqa: BLE001 - reported below
                        failures.append(exc)

                expected = [
                    server.service.count(f"tonnage >= {worker}") for worker in range(workers)
                ]
                threads = [
                    threading.Thread(target=hammer, args=(worker,))
                    for worker in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not failures
                accepted, requests = _http_counts(server)
                assert 1 <= accepted <= workers
                assert requests == 25 * workers
                idle = [connection for connection, _ in client._idle]
                assert len(idle) == len(set(map(id, idle))) == accepted
        finally:
            sys.setswitchinterval(interval)

    def test_connection_closed_while_idle_is_replaced_without_a_retry(self, monkeypatch):
        monkeypatch.setattr(server_module, "SOCKET_TIMEOUT_SECONDS", 0.1)
        with AdvisorHTTPServer(_service(), port=0) as server:
            client = RemoteAdvisor(server.url, retries=0)
            assert client.count() == 80
            deadline = time.monotonic() + 5.0
            while not client_module._readable(client._idle[0][0].sock):
                assert time.monotonic() < deadline, "the server never timed the connection out"
                time.sleep(0.02)
            # retries=0: a failed attempt would raise, so this one did not fail.
            assert client.count() == 80
            assert _http_counts(server) == (2, 2)

    def test_connection_idle_for_too_long_is_not_reused(self, monkeypatch):
        with AdvisorHTTPServer(_service(), port=0) as server:
            client = RemoteAdvisor(server.url)
            client.count()
            monkeypatch.setattr(client_module, "MAX_IDLE_SECONDS", 0.0)
            client.count()
            assert _http_counts(server) == (2, 2)

    def test_close_releases_the_idle_connections(self):
        with AdvisorHTTPServer(_service(), port=0) as server:
            client = RemoteAdvisor(server.url)
            client.count()
            client.close()
            assert client._idle == []
            assert client.count() == 80  # and the client stays usable
            assert _http_counts(server)[0] == 2

    @pytest.mark.parametrize("retries", [0, 2])
    def test_a_request_is_written_exactly_once_per_attempt(self, retries):
        # At-most-once: a connection that dies after the request was
        # written is a failed attempt, never an implicit resend — an
        # ``ingest`` must not be applied twice behind the caller's back.
        silent = _SilentServer()
        try:
            client = RemoteAdvisor(silent.url, timeout=5.0, retries=retries)
            with pytest.raises(RemoteTransportError) as excinfo:
                client.ingest(rows=[{"tonnage": 1}])
            assert f"after {retries + 1} attempt(s)" in str(excinfo.value)
            assert len(silent.requests) == retries + 1
            assert all(b'"ingest"' in body for body in silent.requests)
        finally:
            silent.close()

    def test_stopped_server_is_stopped_and_its_successor_is_reached(self):
        server = AdvisorHTTPServer(_service(), port=0).start()
        port = server.port
        client = RemoteAdvisor(server.url)
        plain = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
        try:
            assert client.count() == 80
            plain.request("GET", "/v1/health")
            assert plain.getresponse().read()
            server.shutdown()
            # The keep-alive connection opened before the shutdown is dead…
            with pytest.raises((http.client.HTTPException, OSError)):
                plain.request("GET", "/v1/health")
                plain.getresponse().read()
            # …and the client reports a transport failure, not an answer.
            with pytest.raises(RemoteTransportError):
                client.count()
            with AdvisorHTTPServer(_service(), port=port):
                assert client.count() == 80
        finally:
            plain.close()
            server.shutdown()
