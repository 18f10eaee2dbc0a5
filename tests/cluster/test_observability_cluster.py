"""Distributed observability: traced requests through a 2-node cluster
assemble one span tree; router ``/v1/metrics`` merges node histograms;
``slow_ops`` fans out and re-ranks."""

from __future__ import annotations

import urllib.request

import pytest

from repro.api.client import RemoteAdvisor
from repro.api.server import AdvisorHTTPServer
from repro.cluster.router import ClusterRouter, RouterHTTPServer
from repro.service import AdvisorService
from repro.workloads import generate_voc

_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]
_ROWS, _SEED = 400, 11


def _node_service():
    return AdvisorService(generate_voc(rows=_ROWS, seed=_SEED), batch_window=0.0)


class _ThreadedCluster:
    """N in-process advisor servers behind a router front door."""

    def __init__(self, nodes=2, replicas=1, **router_options):
        self.servers = [
            AdvisorHTTPServer(_node_service(), port=0, node_id=f"node-{i}").start()
            for i in range(nodes)
        ]
        options = {"probe_interval": 60.0}
        options.update(router_options)
        self.router = ClusterRouter(
            {i: server.url for i, server in enumerate(self.servers)},
            replicas=replicas,
            **options,
        ).start()
        self.front = RouterHTTPServer(self.router, port=0).start()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.front.shutdown()
        self.router.close()
        for server in self.servers:
            try:
                server.shutdown()
            except OSError:
                pass

    def client(self, **kwargs):
        return RemoteAdvisor(self.front.url, **kwargs)


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


@pytest.fixture(scope="module")
def cluster():
    with _ThreadedCluster(nodes=2, replicas=1) as running:
        yield running


class TestDistributedTracing:
    def test_traced_advise_assembles_router_and_node_spans(self, cluster):
        client = cluster.client(trace=True)
        # Open without a context so the traced advise computes fresh
        # (a cache-served advise legitimately has no engine spans).
        session = client.open_session("traced")
        session.advise(_CONTEXT)
        tree = client.last_trace
        assert tree is not None
        # Router root, the node's service span beneath it, the session
        # and per-engine-operation spans beneath that.
        assert tree["name"] == "router.advise"
        names = _span_names(tree)
        assert "service.advise" in names
        assert "session.advise" in names
        assert any(name.startswith("engine.") for name in names if name)
        # The whole assembled tree shares the router-issued trace id.
        assert len(_trace_ids(tree)) == 1
        session.close()

    def test_node_root_carries_the_router_parent(self, cluster):
        client = cluster.client(trace=True)
        client.stats()
        tree = client.last_trace
        assert tree["name"] == "router.stats"
        node_roots = [
            child for child in tree.get("children", [])
            if isinstance(child, dict) and child.get("name", "").startswith("service.")
        ]
        assert node_roots
        for node_root in node_roots:
            assert node_root["trace_id"] == tree["trace_id"]
            assert node_root["parent_id"] == tree["span_id"]

    def test_untraced_requests_stay_untraced(self, cluster):
        client = cluster.client()
        client.open_session("plain", context=_CONTEXT).close()
        assert client.last_trace is None


class TestMergedMetrics:
    def test_router_metrics_merge_node_documents(self, cluster):
        client = cluster.client()
        session = client.open_session("metrics", context=_CONTEXT)
        session.advise(_CONTEXT)
        session.close()
        merged = cluster.router.metrics_document()
        assert merged["nodes"] == 2
        counter_names = {row["name"] for row in merged["counters"]}
        assert "requests_total" in counter_names
        assert "router_forwards_total" in counter_names
        histogram_rows = {
            row["name"] for row in merged["histograms"]
        }
        assert "request_seconds" in histogram_rows
        # The merged requests_total equals the sum of the node totals.
        node_totals = sum(
            row["value"]
            for server in cluster.servers
            for row in server.service.metrics_document()["counters"]
            if row["name"] == "requests_total"
        )
        (merged_total,) = [
            row["value"]
            for row in merged["counters"]
            if row["name"] == "requests_total"
        ]
        assert merged_total == node_totals

    def test_router_times_its_forwards_per_node(self, cluster):
        client = cluster.client()
        before = {
            row["labels"]["node"]: row["count"]
            for row in cluster.router.metrics_document()["histograms"]
            if row["name"] == "router_forward_seconds"
        }
        assert set(before) == {"0", "1"}
        for _ in range(5):
            client.count()  # a table op: always the same owner node
        after = {
            row["labels"]["node"]: row["count"]
            for row in cluster.router.metrics_document()["histograms"]
            if row["name"] == "router_forward_seconds"
        }
        assert sum(after.values()) - sum(before.values()) == 5
        assert sorted(after[node] - before[node] for node in after) == [0, 5]
        assert 'charles_router_forward_seconds{node="0",quantile="0.5"}' in (
            cluster.router.metrics_text()
        )

    def test_connection_counters_keep_router_and_nodes_apart(self, cluster):
        client = cluster.client()
        for _ in range(20):
            client.count()
        rows = {
            (row["name"], row["labels"]["front"]): row["value"]
            for row in client.metrics_document()["counters"]
            if row["name"].startswith("http_")
        }
        assert {front for _, front in rows} == {"node", "router"}
        for front in ("node", "router"):
            accepted = rows[("http_connections_accepted_total", front)]
            requests = rows[("http_requests_total", front)]
            # Connection-per-request would read a ratio of 1 on both hops.
            assert accepted >= 1 and requests >= 4 * accepted

    def test_router_serves_prometheus_text(self, cluster):
        with urllib.request.urlopen(f"{cluster.front.url}/v1/metrics") as reply:
            assert reply.headers["Content-Type"].startswith("text/plain")
            text = reply.read().decode()
        assert "# TYPE charles_requests_total counter" in text
        assert "charles_router_forwards_total" in text
        assert 'quantile="0.95"' in text

    def test_merged_histogram_counts_cover_both_nodes(self, cluster):
        client = cluster.client()
        # Hit both nodes: stats fans out everywhere.
        client.stats()
        merged = cluster.router.metrics_document()
        stats_rows = [
            row
            for row in merged["histograms"]
            if row["name"] == "request_seconds" and row["labels"].get("op") == "stats"
        ]
        assert stats_rows and stats_rows[0]["count"] >= 2


class TestSlowOpsFanout:
    def test_slow_ops_merges_across_nodes(self, cluster):
        client = cluster.client(trace=True)
        session = client.open_session("slow", context=_CONTEXT)
        session.advise(_CONTEXT)
        session.close()
        document = client.call("slow_ops")
        assert sorted(document["nodes"]) == [0, 1]
        assert "advise" in document["ops"] or "open_session" in document["ops"]
        # Traced requests keep their span tree in the slow-op entries.
        traced = [
            entry
            for entries in document["ops"].values()
            for entry in entries
            if "trace" in entry
        ]
        assert traced
        assert any(
            entry["trace"].get("trace_id") for entry in traced
        )

    def test_slow_ops_limit_is_honoured_after_the_merge(self, cluster):
        client = cluster.client()
        for _ in range(3):
            client.stats()
        document = client.call("slow_ops", limit=1)
        assert document["per_op"] == 1
        for entries in document["ops"].values():
            assert len(entries) <= 1
