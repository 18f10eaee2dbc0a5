"""Router semantics over in-process nodes (threads, not processes).

Spawning real node processes is slow, so the router's *logic* — routing,
byte parity, replication, failover with journal resurrection, degraded
signalling — is exercised here against plain :class:`AdvisorHTTPServer`
instances running in this process.  The true multi-process stack
(supervisor + SIGKILL) is covered by ``test_cluster_processes.py``.

The parity bar is the same as the single-node wire tests: advice served
through the router must be byte-identical to an in-process session over
an identically generated table.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.api.client import RemoteAdvisor
from repro.api.codec import dumps
from repro.api.server import AdvisorHTTPServer
from repro.cluster.router import ClusterRouter, RouterHTTPServer, SessionJournal
from repro.errors import DegradedError, SessionError, UnknownOperationError
from repro.service import AdvisorService
from repro.workloads import generate_voc

_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]
_ROWS, _SEED = 500, 11


def _answers_wire(advice):
    """Canonical bytes of what the user sees (timing excluded)."""
    return dumps({"context": advice.context, "answers": advice.answers})


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
            except OSError:  # already shut down by the test
                pass

    def client(self, **kwargs):
        return RemoteAdvisor(self.front.url, **kwargs)

    def owner_of(self, session):
        return self.router.cluster_document()["sessions"][session]


class TestRouterParity:
    def test_full_exploration_loop_is_byte_identical(self):
        # advise → drill → back → refine through the router vs the same
        # loop on an in-process service over an identical table.
        local_service = _node_service()
        with _ThreadedCluster(nodes=3, replicas=1) as cluster:
            client = cluster.client()
            for name in ("alice", "bob", "carol"):
                local = local_service.open_session(name)
                remote = client.open_session(name)
                local_steps = [
                    local.advise(_CONTEXT),
                    local.drill(0, 0),
                    local.back(),
                    local.drill(0, 1),
                ]
                remote_steps = [
                    remote.advise(_CONTEXT),
                    remote.drill(0, 0),
                    remote.back(),
                    remote.drill(0, 1),
                ]
                for step, (mine, theirs) in enumerate(zip(local_steps, remote_steps)):
                    assert _answers_wire(mine) == _answers_wire(theirs), (
                        f"{name} step {step} diverged"
                    )
                assert remote.breadcrumbs() == local.breadcrumbs()

    def test_ingest_broadcasts_and_refresh_stays_identical(self):
        local_service = _node_service()
        with _ThreadedCluster(nodes=3, replicas=1) as cluster:
            client = cluster.client()
            local = local_service.open_session("alice")
            remote = client.open_session("alice")
            assert _answers_wire(local.advise(_CONTEXT)) == _answers_wire(
                remote.advise(_CONTEXT)
            )

            local_summary = local_service.ingest(delete="tonnage < 200")
            remote_summary = client.ingest(delete="tonnage < 200")
            assert remote_summary["deleted"] == local_summary["deleted"]
            # The mutation reached every node, not just the shard owner.
            assert remote_summary["cluster"]["applied_on"] == [0, 1, 2]
            versions = {
                server.service.data_versions()["voc"] for server in cluster.servers
            }
            assert len(versions) == 1, "node data versions drifted after ingest"

            # Post-ingest refresh: same answers on the shrunk table.
            assert _answers_wire(local.advise(refresh=True)) == _answers_wire(
                remote.advise(refresh=True)
            )

    def test_sessionless_ops_route_by_table(self):
        local_service = _node_service()
        with _ThreadedCluster(nodes=2) as cluster:
            client = cluster.client()
            assert client.count(_CONTEXT) == local_service.count(_CONTEXT)
            assert client.health()["tables"] == ["voc"]


class TestSessionLifetime:
    def test_closed_sessions_leave_no_router_state(self):
        # Journal, placement and the per-session lock all go with the close.
        with _ThreadedCluster(nodes=2) as cluster:
            client = cluster.client()
            for index in range(20):
                client.open_session(f"user{index}").close()
            router = cluster.router
            assert (router._journals, router._placements, router._session_locks) == ({}, {}, {})
            # A name is reusable after its close, in order, under a new lock.
            reopened = client.open_session("user0", context=_CONTEXT)
            assert reopened.advise().answers
            assert set(router._session_locks) == {"user0"}
            reopened.close()
            with pytest.raises(SessionError):
                client.session("user0")
            assert router._session_locks == {}


class TestFailover:
    def test_node_death_resurrects_sessions_from_journal(self):
        local_service = _node_service()
        with _ThreadedCluster(nodes=2, replicas=1) as cluster:
            client = cluster.client()
            local = local_service.open_session("alice")
            remote = client.open_session("alice")
            local.advise(_CONTEXT)
            remote.advise(_CONTEXT)
            local_drilled = local.drill(0, 0)
            remote_drilled = remote.drill(0, 0)
            assert _answers_wire(local_drilled) == _answers_wire(remote_drilled)

            owner = cluster.owner_of("alice")
            cluster.servers[owner].shutdown()

            # Next request fails over, replays the journal (open → advise
            # → drill) on the survivor, and keeps serving identical bytes.
            local_after = local.back()
            remote_after = remote.back()
            assert _answers_wire(local_after) == _answers_wire(remote_after)
            counters = cluster.router.counters()
            assert counters["failovers"] >= 1
            assert counters["resurrections"] == 1
            assert counters["node_failures"] >= 1
            assert cluster.owner_of("alice") != owner
            states = {
                status["state"]
                for status in cluster.router.monitor.snapshot().values()
            }
            assert states == {"live", "dead"}

    def test_all_nodes_dead_raises_typed_degraded_error(self):
        with _ThreadedCluster(nodes=2, replicas=1) as cluster:
            client = cluster.client()
            remote = client.open_session("alice", context=_CONTEXT)
            for server in cluster.servers:
                server.shutdown()
            with pytest.raises(DegradedError) as excinfo:
                remote.advise(refresh=True)
            assert "all dead" in str(excinfo.value)
            assert excinfo.value.code == "cluster_degraded"
            assert cluster.router.counters()["degraded_requests"] >= 1
            # The front door itself stays up and reports the outage.
            assert client.health()["status"] == "down"

    def test_dead_node_session_errors_pass_through_typed(self):
        # A node that *answers* with an error is not a transport failure:
        # the router must relay the typed error, not fail over.
        with _ThreadedCluster(nodes=2) as cluster:
            client = cluster.client()
            with pytest.raises(SessionError):
                client.session("nobody")
            with pytest.raises(UnknownOperationError):
                client.call("frobnicate")
            assert cluster.router.counters()["failovers"] == 0


class TestDegradedAnswers:
    def test_stale_advice_is_flagged_degraded(self):
        # White-box: pretend the *other* node reported a newer data
        # version than the serving node's copy — the router must mark the
        # answer degraded rather than present it as current.
        with _ThreadedCluster(nodes=2) as cluster:
            client = cluster.client()
            remote = client.open_session("alice")
            advice = remote.advise(_CONTEXT)
            assert advice.degraded is False

            cluster.router.monitor.note_data_version(
                1 - cluster.owner_of("alice"), "voc", 999
            )
            stale = remote.advise(refresh=True)
            assert stale.degraded is True
            assert cluster.router.counters()["degraded_answers"] >= 1


    def test_probe_racing_an_ingest_keeps_the_newer_version(self):
        # Regression: a probe fetches /v1/health outside the monitor's
        # lock.  An ingest completing during that round-trip records the
        # new version (note_data_version); the probe's older document
        # must not overwrite it, or fresh advice gets flagged degraded
        # until the next sweep.
        with _ThreadedCluster(nodes=2) as cluster:
            client = cluster.client()
            remote = client.open_session("alice")
            remote.advise(_CONTEXT)
            owner = cluster.owner_of("alice")
            monitor = cluster.router.monitor
            before = monitor.data_version(owner, "voc")

            class IngestDuringProbe:
                """The owner's health client, with an ingest landing
                between the node's answer and the probe's bookkeeping."""

                url = monitor._clients[owner].url
                inner = monitor._clients[owner]

                def health(self):
                    document = self.inner.health()
                    client.ingest(rows=[{"tonnage": 901, "type_of_boat": "pinas"}])
                    return document

            monitor._clients[owner] = IngestDuringProbe()
            assert monitor.probe(owner) is True
            assert monitor.data_version(owner, "voc") == before + 1
            assert monitor.data_version(1 - owner, "voc") == before + 1
            fresh = remote.advise(refresh=True)
            assert fresh.degraded is False
            assert cluster.router.counters()["degraded_answers"] == 0


class TestClusterDocuments:
    def test_stats_fan_out_aggregates_every_node(self):
        with _ThreadedCluster(nodes=3) as cluster:
            client = cluster.client()
            client.open_session("alice", context=_CONTEXT)
            stats = client.stats()
            assert set(stats["nodes"]) == {"0", "1", "2"}
            assert stats["requests"] >= 1  # the owner served the session
            assert stats["router"]["forwards"] >= 1

    def test_cluster_document_describes_topology(self):
        with _ThreadedCluster(nodes=2, replicas=1) as cluster:
            client = cluster.client()
            client.open_session("alice", context=_CONTEXT)
            document = client.cluster()
            assert document["router"]["nodes"] == [0, 1]
            assert document["shard_map"]["replicas"] == 1
            assert set(document["nodes"]) == {"0", "1"}
            assert all(
                status["state"] == "live" for status in document["nodes"].values()
            )
            assert "alice" in document["sessions"]

    def test_health_document_degrades_with_the_fleet(self):
        with _ThreadedCluster(nodes=2) as cluster:
            client = cluster.client()
            assert client.health()["status"] == "ok"
            cluster.router.monitor.mark_dead(0)
            assert client.health()["status"] == "degraded"


def _post_nested(front, depth):
    """POST a ``count`` whose context is ``"tonnage"`` inside ``depth``
    objects to ``front`` over a raw socket: ``(status, envelope)``."""
    body = b'{"op": "count", "params": {"context": ' + b'{"a": ' * depth + b'"tonnage"'
    body += b"}" * depth + b"}}"
    head = b"POST /v1/rpc HTTP/1.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
    received = b""
    with socket.create_connection((front.host, front.port), timeout=30) as raw:
        raw.sendall(head % len(body) + body)
        while chunk := raw.recv(65536):
            received += chunk
    status_line, _, rest = received.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


class TestDeepNesting:
    def test_deep_nesting_is_a_wire_format_error_through_the_router(self):
        with _ThreadedCluster(nodes=2) as cluster:
            # Past the router's JSON parser: a 400 from the front door.
            status, envelope = _post_nested(cluster.front, 50_000)
            assert status == 400
            assert envelope["error"]["code"] == "protocol_wire_format"
            # Parsed, forwarded, refused by the node's envelope decoder.
            status, envelope = _post_nested(cluster.front, 700)
            assert status == 200
            assert envelope["error"]["code"] == "protocol_wire_format"
            client = cluster.client()
            assert client.count(["tonnage"]) == _ROWS
            document = client.cluster()
            assert document["router"]["counters"]["node_failures"] == 0
            assert all(node["state"] == "live" for node in document["nodes"].values())


class TestSessionJournal:
    def test_records_only_state_changing_steps(self):
        journal = SessionJournal({"name": "alice", "table": "voc"})
        journal.record("advise", {"context": _CONTEXT})
        journal.record("drill", {"answer_index": 0, "segment_index": 1})
        journal.record("drill", {"answer_index": 2, "segment_index": 0})
        journal.record("back", {})
        payloads = journal.replay_payloads("alice")
        ops = [payload["op"] for payload in payloads]
        assert ops == ["open_session", "advise", "drill"]
        assert payloads[0]["params"]["replace"] is True
        assert payloads[2]["params"] == {"answer_index": 0, "segment_index": 1}

    def test_reads_do_not_touch_the_journal(self):
        def _replayed(journal):
            return [(p["op"], p["params"]) for p in journal.replay_payloads("alice")]

        journal = SessionJournal({"name": "alice"})
        journal.record("advise", {"context": _CONTEXT})
        before = _replayed(journal)
        journal.record("advise", {"current": True})
        journal.record("advise", {"refresh": True})  # refresh keeps context
        journal.record("describe", {})
        assert _replayed(journal) == before

    def test_new_context_resets_the_drill_stack(self):
        journal = SessionJournal({"name": "alice"})
        journal.record("advise", {"context": _CONTEXT})
        journal.record("drill", {"answer_index": 0, "segment_index": 0})
        journal.record("advise", {"context": ["tonnage"]})
        payloads = journal.replay_payloads("alice")
        assert [payload["op"] for payload in payloads] == ["open_session", "advise"]
        assert payloads[1]["params"]["context"] == ["tonnage"]

    def test_refine_upgrades_the_replayed_mode(self):
        journal = SessionJournal({"name": "alice"})
        journal.record("advise", {"context": _CONTEXT, "mode": "approximate"})
        assert journal.replay_payloads("a")[1]["params"]["mode"] == "approximate"
        journal.record("refine", {})
        assert journal.replay_payloads("a")[1]["params"]["mode"] == "exact"
        # An explicit mode is replayed verbatim: on a sampled backend the
        # default is the sample, so "exact" must survive a failover.
        journal.record("advise", {"context": _CONTEXT, "mode": "exact"})
        assert journal.replay_payloads("a")[1]["params"]["mode"] == "exact"
        journal.record("advise", {"context": _CONTEXT})
        assert "mode" not in journal.replay_payloads("a")[1]["params"]
