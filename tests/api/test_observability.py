"""End-to-end observability tests: trace envelopes, span assembly on a
single node, ``/v1/metrics`` exposition and the slow-op log surface."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.api.client import RemoteAdvisor
from repro.api.protocol import Request, Response
from repro.api.server import AdvisorHTTPServer
from repro.errors import ProtocolError, WireFormatError
from repro.service import AdvisorService
from repro.workloads import generate_voc

_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]
_ROWS, _SEED = 600, 23


@pytest.fixture(scope="module")
def server():
    service = AdvisorService(generate_voc(rows=_ROWS, seed=_SEED), batch_window=0.0)
    with AdvisorHTTPServer(service, port=0) as running:
        yield running


def _span_names(document, into=None):
    names = [] if into is None else into
    names.append(document.get("name"))
    for child in document.get("children", []) or []:
        _span_names(child, names)
    return names


def _trace_ids(document, into=None):
    ids = set() if into is None else into
    ids.add(document.get("trace_id"))
    for child in document.get("children", []) or []:
        _trace_ids(child, ids)
    return ids


class TestTraceEnvelope:
    def test_request_trace_round_trips(self):
        request = Request(op="advise", session="s", trace={"trace_id": "t-1"})
        payload = request.to_wire()
        assert payload["trace"] == {"trace_id": "t-1"}
        decoded = Request.from_wire(payload)
        assert decoded.trace == {"trace_id": "t-1"}
        assert decoded == request

    def test_untraced_request_omits_the_field(self):
        payload = Request(op="stats").to_wire()
        assert "trace" not in payload

    def test_legacy_payload_without_trace_decodes_untraced(self):
        payload = Request(op="stats").to_wire()
        payload.pop("trace", None)
        assert Request.from_wire(payload).trace is None

    def test_malformed_trace_is_rejected_on_both_envelopes(self):
        with pytest.raises(WireFormatError):
            Request(op="stats", trace="not an object")
        payload = Request(op="stats").to_wire()
        payload["trace"] = ["nope"]
        with pytest.raises(WireFormatError):
            Request.from_wire(payload)
        with pytest.raises(WireFormatError):
            Response(ok=True, op="stats", trace=42)

    def test_response_trace_round_trips(self):
        response = Response(
            ok=True, op="advise", result=None,
            trace={"name": "service.advise", "trace_id": "t"},
        )
        decoded = Response.from_wire(response.to_wire())
        assert decoded.trace == {"name": "service.advise", "trace_id": "t"}


class TestServiceTracing:
    @pytest.fixture()
    def service(self):
        return AdvisorService(generate_voc(rows=_ROWS, seed=_SEED), batch_window=0.0)

    def test_untraced_request_returns_no_trace(self, service):
        response = service.submit(Request(op="stats"))
        assert response.ok
        assert response.trace is None

    def test_traced_advise_assembles_the_span_tree(self, service):
        service.submit(
            Request(op="open_session", session="probe", params={"table": "voc"})
        )
        response = service.submit(
            Request(
                op="advise", session="probe", params={"context": _CONTEXT}, trace={}
            )
        )
        assert response.ok
        tree = response.trace
        assert tree is not None
        assert tree["name"] == "service.advise"
        names = _span_names(tree)
        assert "session.advise" in names
        assert any(name.startswith("engine.") for name in names if name)
        assert len(_trace_ids(tree)) == 1  # one trace id for the whole tree
        assert tree["attributes"]["op"] == "advise"

    def test_traced_refine_shows_its_exact_advise(self, service):
        assert service.submit(Request(op="open_session", session="probe")).ok
        assert service.submit(
            Request(
                op="advise",
                session="probe",
                params={"context": _CONTEXT, "mode": "interactive"},
            )
        ).ok
        response = service.submit(Request(op="refine", session="probe", trace={}))
        assert response.ok and response.result.approximate is False
        (refine,) = [
            child
            for child in response.trace.get("children", [])
            if child["name"] == "session.refine"
        ]
        assert any(name.startswith("engine.") for name in _span_names(refine))

    def test_traced_request_joins_a_distributed_trace(self, service):
        response = service.submit(
            Request(
                op="stats",
                trace={"trace_id": "t-router", "parent_id": "s-router"},
            )
        )
        assert response.trace["trace_id"] == "t-router"
        assert response.trace["parent_id"] == "s-router"

    def test_failed_requests_still_carry_their_trace(self, service):
        response = service.submit(
            Request(op="advise", session="ghost", trace={})
        )
        assert not response.ok
        assert response.trace is not None
        assert response.trace["error"]

    def test_slow_op_log_records_every_request(self, service):
        service.submit(Request(op="stats"))
        document = service.slow_ops()
        assert "stats" in document["ops"]
        (entry, *_) = document["ops"]["stats"]
        assert entry["seconds"] >= 0.0

    def test_slow_op_entries_keep_the_trace(self, service):
        service.submit(Request(op="stats", trace={}))
        entries = service.slow_ops()["ops"]["stats"]
        assert any("trace" in entry for entry in entries)

    def test_slow_ops_limit_is_validated(self, service):
        for bad_limit in ("three", True):
            response = service.submit(
                Request(op="slow_ops", params={"limit": bad_limit})
            )
            assert not response.ok
            assert response.error_code == ProtocolError.code

    def test_metrics_document_covers_requests_and_engine_ops(self, service):
        service.submit(Request(op="open_session", session="m", params={"table": "voc"}))
        service.submit(Request(op="advise", session="m", params={"context": _CONTEXT}))
        document = service.metrics_document()
        counter_names = {row["name"] for row in document["counters"]}
        gauge_names = {row["name"] for row in document["gauges"]}
        histogram_names = {row["name"] for row in document["histograms"]}
        assert "requests_total" in counter_names
        assert "engine_count_calls_total" in counter_names
        assert "cache_hits_total" in counter_names
        assert "cache_entries" in gauge_names
        assert "sessions_open" in gauge_names
        assert "request_seconds" in histogram_names
        request_rows = [
            row for row in document["histograms"] if row["name"] == "request_seconds"
        ]
        assert {row["labels"]["op"] for row in request_rows} >= {"advise"}

    def test_every_stats_tally_has_a_metrics_row(self, service):
        """The registry's views are derived from the structures ``stats``
        snapshots, so no engine or cache tally can be missing from
        ``/v1/metrics`` (the hand-kept list dropped four of them)."""
        service.submit(Request(op="open_session", session="t", params={"table": "voc"}))
        service.submit(Request(op="advise", session="t", params={"context": _CONTEXT}))
        document = service.metrics_document()
        rows = {
            (row["name"], row["labels"].get("cache")): row["value"]
            for row in document["counters"] + document["gauges"]
            if row["labels"].get("table") == "voc"
        }
        stats = service.stats()["tables"]["voc"]
        engine = dict(stats["primary_engine"])
        engine.pop("total_database_operations")  # the sum of four tallies below
        assert {"evaluations", "frequency_calls", "minmax_calls"} <= set(engine)
        for tally, value in engine.items():
            assert rows[(f"engine_{tally}_total", None)] == value
        for kind, key in (("results", "result_cache"), ("advice", "advice_cache")):
            cache = dict(stats[key])
            cache.pop("hit_rate")  # a ratio of two tallies below
            assert "puts" in cache
            for stat, value in cache.items():
                levels = ("capacity", "entries", "approx_bytes")
                name = f"cache_{stat}" if stat in levels else f"cache_{stat}_total"
                assert rows[(name, kind)] == value

    def test_cache_gauges_track_the_result_cache(self, service):
        service.submit(Request(op="open_session", session="g", params={"table": "voc"}))
        service.submit(Request(op="advise", session="g", params={"context": _CONTEXT}))
        document = service.metrics_document()
        entries = {
            (row["labels"].get("cache"), row["name"]): row["value"]
            for row in document["gauges"]
            if row["name"] in ("cache_entries", "cache_approx_bytes")
        }
        assert entries[("results", "cache_entries")] >= 0
        assert entries[("advice", "cache_entries")] >= 1


    def test_memory_gauges(self, service, monkeypatch):
        """What is resident; not part of the ``stats`` wire shape."""
        import os

        from repro.service import service as service_module

        gauges = {row["name"]: row for row in service.metrics_document()["gauges"]}
        if os.path.exists("/proc/self/statm"):
            resident = gauges["process_resident_bytes"]
            assert resident["labels"] == {} and resident["value"] > 10_000_000
        assert "process_resident_bytes" not in service.stats()
        # Where the kernel publishes no statm, the gauge is not exported.
        monkeypatch.setattr(service_module, "_STATM", "/nonexistent/statm")
        bare = AdvisorService(generate_voc(rows=50, seed=1)).metrics_document()
        assert "process_resident_bytes" not in {row["name"] for row in bare["gauges"]}

    def test_thread_gauge(self, service, monkeypatch, tmp_path):
        """The kernel's thread count, summed over nodes like RSS, absent
        where ``/proc/self/status`` is."""
        import os

        from repro.obs import MetricsRegistry
        from repro.service import service as service_module

        def threads(document):
            rows = [row for row in document["gauges"] if row["name"] == "process_threads"]
            return rows[0]["value"] if rows else None

        if os.path.exists("/proc/self/status"):
            assert threads(service.metrics_document()) >= 1
        status = tmp_path / "status"
        status.write_text("Name:\tpython\nThreads:\t7\nVmRSS:\t1 kB\n")
        monkeypatch.setattr(service_module, "_STATUS", str(status))
        node = AdvisorService(generate_voc(rows=50, seed=1)).metrics_document()
        assert threads(node) == 7
        assert "process_threads" not in service.stats()
        # Through the router, the gauge is the sum over the node processes.
        assert threads(MetricsRegistry.merge_documents([node, node])) == 14
        monkeypatch.setattr(service_module, "_STATUS", "/nonexistent/status")
        bare = AdvisorService(generate_voc(rows=50, seed=1)).metrics_document()
        assert threads(bare) is None


def _metrics_text(url):
    """The Prometheus text exposition, by a plain ``GET /v1/metrics``."""
    with urllib.request.urlopen(f"{url}/v1/metrics") as reply:
        return reply.read().decode("utf-8")


class TestMetricsEndpoints:
    def test_plain_metrics_is_prometheus_text(self, server):
        client = RemoteAdvisor(server.url)
        client.open_session("scrape", context=_CONTEXT).close()
        text = _metrics_text(server.url)
        assert "# TYPE charles_requests_total counter" in text
        assert 'quantile="0.5"' in text
        assert "charles_request_seconds" in text

    def test_plain_metrics_content_type(self, server):
        with urllib.request.urlopen(f"{server.url}/v1/metrics") as reply:
            assert reply.headers["Content-Type"].startswith("text/plain")
            assert b"charles_requests_total" in reply.read()

    def test_json_metrics_document(self, server):
        client = RemoteAdvisor(server.url)
        document = client.metrics_document()
        assert {"counters", "gauges", "histograms"} <= document.keys()

    def test_http_front_counts_connections_and_requests(self, server):
        client = RemoteAdvisor(server.url)

        def counts():
            rows = {
                row["name"]: row
                for row in client.metrics_document()["counters"]
                if row["name"].startswith("http_")
            }
            assert {row["labels"]["front"] for row in rows.values()} == {"node"}
            return (
                rows["http_connections_accepted_total"]["value"],
                rows["http_requests_total"]["value"],
            )

        accepted, requests = counts()
        for _ in range(10):
            client.count()
        # Eleven more requests (ten counts and the second scrape itself, the
        # scrape's own reply not yet counted), no more connections: the
        # ratio of the two is the reuse rate.
        assert counts() == (accepted, requests + 11)
        text = _metrics_text(server.url)
        assert 'charles_http_connections_accepted_total{front="node"}' in text
        assert 'charles_http_requests_total{front="node"}' in text

    def test_remote_slow_ops(self, server):
        client = RemoteAdvisor(server.url)
        client.open_session("slow", context=_CONTEXT).close()
        document = client.call("slow_ops", limit=2)
        assert document["per_op"] == 2
        assert "open_session" in document["ops"]


class TestRemoteTracing:
    def test_traced_client_captures_the_last_trace(self, server):
        client = RemoteAdvisor(server.url, trace=True)
        session = client.open_session("traced", context=_CONTEXT)
        session.advise(_CONTEXT)
        assert client.last_trace is not None
        names = _span_names(client.last_trace)
        assert names[0] == "service.advise"
        assert "session.advise" in names
        session.close()

    def test_untraced_client_captures_nothing(self, server):
        client = RemoteAdvisor(server.url)
        client.open_session("plain", context=_CONTEXT).close()
        assert client.last_trace is None


class TestInternalErrorLogging:
    def test_unexpected_rpc_failure_logs_structured_record(self, capsys):
        class ExplodingService:
            def submit(self, request):  # pragma: no cover - fails first
                raise RuntimeError("wired wrong")

            def health_document(self):
                return {}

            metrics = None

        service = AdvisorService(generate_voc(rows=60, seed=1), batch_window=0.0)
        with AdvisorHTTPServer(service, port=0) as running:
            original = running.handle_rpc
            running.handle_rpc = ExplodingService().submit
            try:
                payload = Request(
                    op="stats", trace={"trace_id": "t-dbg"}
                ).to_wire()
                request = urllib.request.Request(
                    f"{running.url}/v1/rpc",
                    data=json.dumps(payload).encode(),
                    method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request)
                assert excinfo.value.code == 500
                body = json.loads(excinfo.value.read())
                assert body["error"]["code"] == "internal"
            finally:
                running.handle_rpc = original
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["event"] == "http_internal_error"
        assert record["error"] == "RuntimeError: wired wrong"
        assert record["op"] == "stats"
        assert record["trace_id"] == "t-dbg"
        assert "RuntimeError" in record["traceback"]
