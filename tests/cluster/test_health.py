"""Unit tests for the router's node-state table (``repro.cluster.health``).

The monitor is driven by hand here, through stand-in clients whose health
document is set per test, so each liveness transition is checked without
a process or a socket.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.health import FAILURE_THRESHOLD, HealthMonitor


class _Client:
    """Stands in for a ``RemoteAdvisor``: ``health()`` answers ``document``
    or raises when it is ``None``, and counts its calls."""

    def __init__(self, node_id: int) -> None:
        self.url = f"http://127.0.0.1:{9000 + node_id}"
        self.node_id = node_id
        self.document = None
        self.calls = 0

    def health(self):
        self.calls += 1
        if self.document is None:
            raise ConnectionError("node unreachable")
        return self.document

    def answer(self, **versions):
        self.document = {
            "node": {"node_id": f"node-{self.node_id}", "pid": 100 + self.node_id,
                     "started_at": 1.5},
            "data_versions": versions,
        }


@pytest.fixture()
def clients():
    return {0: _Client(0), 1: _Client(1)}


@pytest.fixture()
def monitor(clients):
    return HealthMonitor(clients)


class TestLiveness:
    def test_nodes_start_neither_live_nor_dead(self, monitor):
        assert monitor.live_nodes() == []
        assert monitor.dead_nodes() == []
        assert monitor.snapshot()[0]["state"] == "unknown"

    def test_an_answered_probe_makes_a_node_live(self, monitor, clients):
        clients[0].answer(voc=3)
        assert monitor.probe(0) is True
        assert monitor.is_live(0)
        status = monitor.snapshot()[0]
        assert status["name"] == "node-0"
        assert status["pid"] == 100
        assert status["probed_at"] is not None

    def test_a_live_node_outlasts_fewer_failures_than_the_threshold(self, monitor, clients):
        clients[0].answer()
        monitor.probe(0)
        clients[0].document = None
        for _ in range(FAILURE_THRESHOLD - 1):
            assert monitor.probe(0) is True
        assert monitor.snapshot()[0]["failures"] == FAILURE_THRESHOLD - 1

    def test_the_threshold_of_consecutive_failures_declares_it_dead(self, monitor, clients):
        clients[0].answer()
        monitor.probe(0)
        clients[0].document = None
        results = [monitor.probe(0) for _ in range(FAILURE_THRESHOLD)]
        assert results[-1] is False
        assert monitor.dead_nodes() == [0]

    def test_an_answer_resets_the_failure_count(self, monitor, clients):
        clients[0].answer()
        monitor.probe(0)
        clients[0].document = None
        for _ in range(FAILURE_THRESHOLD - 1):
            monitor.probe(0)
        clients[0].answer()
        assert monitor.probe(0) is True
        assert monitor.snapshot()[0]["failures"] == 0
        clients[0].document = None
        assert monitor.probe(0) is True  # one failure again, not the threshold

    def test_a_node_never_seen_live_dies_on_its_first_failure(self, monitor):
        assert monitor.probe(1) is False
        assert monitor.dead_nodes() == [1]

    def test_death_is_sticky_and_a_dead_node_is_not_probed(self, monitor, clients):
        monitor.mark_dead(0)
        clients[0].answer()
        assert monitor.probe(0) is False
        assert clients[0].calls == 0
        assert not monitor.is_live(0)

    def test_mark_dead_skips_the_threshold(self, monitor, clients):
        clients[0].answer()
        monitor.probe(0)
        monitor.mark_dead(0)
        assert monitor.dead_nodes() == [0]
        assert monitor.snapshot()[0]["failures"] == FAILURE_THRESHOLD

    def test_probe_all_sweeps_every_node(self, monitor, clients):
        clients[0].answer()
        clients[1].answer()
        monitor.probe_all()
        assert monitor.live_nodes() == [0, 1]
        assert [client.calls for client in clients.values()] == [1, 1]


class TestDataVersions:
    def test_a_probe_records_the_reported_versions(self, monitor, clients):
        clients[0].answer(voc=4, weblog=1)
        monitor.probe(0)
        assert monitor.data_version(0, "voc") == 4
        assert monitor.data_version(0, "missing") is None
        assert monitor.tables() == ["voc", "weblog"]

    def test_an_older_report_does_not_overwrite_a_newer_version(self, monitor, clients):
        monitor.note_data_version(0, "voc", 7)
        clients[0].answer(voc=5)  # a probe that was in flight before the ingest
        monitor.probe(0)
        assert monitor.data_version(0, "voc") == 7

    def test_max_data_version_includes_dead_nodes(self, monitor, clients):
        clients[0].answer(voc=2)
        clients[1].answer(voc=9)
        monitor.probe_all()
        monitor.mark_dead(1)
        assert monitor.max_data_version("voc") == 9
        assert monitor.max_data_version("missing") is None

    def test_the_snapshot_is_json_safe(self, monitor, clients):
        clients[0].answer(voc=1)
        monitor.probe_all()
        document = json.loads(json.dumps(monitor.snapshot()))
        assert document["0"]["data_versions"] == {"voc": 1}
        assert document["1"]["state"] == "dead"
