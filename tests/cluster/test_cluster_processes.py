"""The real thing: spawned node processes, SIGKILL, graceful degradation.

``test_router_threaded.py`` proves the router's logic against in-process
nodes; this module proves the full stack — ``NodeSupervisor`` spawning
advisor processes, the router discovering a SIGKILLed node through its
transport errors, journal resurrection on a replica, and the typed
``DegradedError`` (never a hang or a raw socket error) once no replica
is left.

Process spawning is expensive, so tables are small and each scenario
starts exactly one cluster.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api.client import RemoteAdvisor
from repro.api.codec import dumps
from repro.cluster import AdvisorCluster, NodeSupervisor, TableSpec
from repro.errors import ClusterError, DegradedError
from repro.service import AdvisorService
from repro.workloads import generate_voc

_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]
_ROWS, _SEED = 300, 5
_SPEC = TableSpec.dataset("voc", rows=_ROWS, seed=_SEED)


def _answers_wire(advice):
    return dumps({"context": advice.context, "answers": advice.answers})


def _local_service():
    return AdvisorService(generate_voc(rows=_ROWS, seed=_SEED), batch_window=0.0)


def _run_exploration(session):
    """advise → drill → back on a session; returns the three advices."""
    return [session.advise(_CONTEXT), session.drill(0, 0), session.back()]


@pytest.mark.parametrize("nodes,replicas", [(1, 0), (2, 1), (3, 1)])
def test_router_matches_local_service_across_grid(nodes, replicas):
    # The acceptance bar of the cluster tier: advice through the router
    # is byte-identical to a single local session, for every cluster
    # shape — including after an ingest broadcast.
    local_service = _local_service()
    with AdvisorCluster([_SPEC], nodes=nodes, replicas=replicas) as cluster:
        client = RemoteAdvisor(cluster.url, timeout=30.0)
        local = local_service.open_session("alice")
        remote = client.open_session("alice")
        local_steps = _run_exploration(local)
        remote_steps = _run_exploration(remote)
        for step, (mine, theirs) in enumerate(zip(local_steps, remote_steps)):
            assert _answers_wire(mine) == _answers_wire(theirs), (
                f"step {step} diverged on {nodes} node(s)"
            )

        local_summary = local_service.ingest(delete="tonnage < 150")
        remote_summary = client.ingest(delete="tonnage < 150")
        assert remote_summary["deleted"] == local_summary["deleted"]
        assert remote_summary["cluster"]["applied_on"] == list(range(nodes))
        assert _answers_wire(local.advise(refresh=True)) == _answers_wire(
            remote.advise(refresh=True)
        )


def _sigkill(cluster, node_id):
    """SIGKILL one node, like a crashed machine: no flush, no goodbye."""
    (handle,) = [handle for handle in cluster.handles() if handle.node_id == node_id]
    handle.process.kill()
    handle.process.wait(timeout=10.0)
    return handle


def test_sigkilled_owner_fails_over_then_cluster_degrades():
    local_service = _local_service()
    with AdvisorCluster([_SPEC], nodes=2, replicas=1, probe_interval=0.3) as cluster:
        client = RemoteAdvisor(cluster.url, timeout=30.0)
        local = local_service.open_session("alice")
        remote = client.open_session("alice")
        assert _answers_wire(local.advise(_CONTEXT)) == _answers_wire(
            remote.advise(_CONTEXT)
        )
        assert _answers_wire(local.drill(0, 0)) == _answers_wire(remote.drill(0, 0))

        owner = int(client.cluster()["sessions"]["alice"])
        handle = _sigkill(cluster, owner)  # the router is not informed
        assert not handle.alive()

        # The next request must fail over to the replica and resurrect
        # the session from the router's journal — same bytes, bounded
        # time, no manual re-open.
        started = time.monotonic()
        local_after = local.back()
        remote_after = remote.back()
        assert time.monotonic() - started < 60.0
        assert _answers_wire(local_after) == _answers_wire(remote_after)

        document = client.cluster()
        assert document["router"]["counters"]["resurrections"] == 1
        assert document["nodes"][str(owner)]["state"] == "dead"

        # Kill the survivor: the router must answer with the typed
        # degraded error, not hang and not leak a socket error.
        survivor = int(client.cluster()["sessions"]["alice"])
        assert survivor != owner
        _sigkill(cluster, survivor)
        started = time.monotonic()
        with pytest.raises(DegradedError) as excinfo:
            remote.advise(refresh=True)
        assert time.monotonic() - started < 60.0
        assert excinfo.value.code == "cluster_degraded"
        assert "all dead" in str(excinfo.value)

        # The front door itself is still answering.
        assert client.health()["status"] == "down"


# -- the process model: N nodes are N plain subprocesses -------------------------


def _children(pid):
    """pid → command line of every live child of ``pid``, from ``/proc``."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            cmdline = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        # Fields after the parenthesised command name: state ppid ...
        state, ppid = stat.rsplit(")", 1)[-1].split()[:2]
        if int(ppid) == pid and state != "Z":
            found[int(entry)] = cmdline.replace(b"\0", b" ").decode()
    return found


def _alive(pid):
    try:
        state = Path("/proc", str(pid), "stat").read_text().rsplit(")", 1)[-1].split()[0]
    except OSError:
        return False
    return state != "Z"


def test_a_two_node_cluster_is_two_child_processes():
    before = set(_children(os.getpid()))
    with AdvisorCluster([_SPEC], nodes=2) as cluster:
        children = {
            pid: cmdline
            for pid, cmdline in _children(os.getpid()).items()
            if pid not in before
        }
        assert set(children) == {handle.pid for handle in cluster.handles()}
        for cmdline in children.values():
            assert "repro.cluster.node_main" in cmdline
            assert "resource_tracker" not in cmdline
            assert "spawn_main" not in cmdline
        node_pids = list(children)
    assert not any(_alive(pid) for pid in node_pids)
    assert set(_children(os.getpid())) <= before


_SUPERVISOR_SCRIPT = """
import sys, time
from repro.cluster import NodeSupervisor, TableSpec
supervisor = NodeSupervisor([TableSpec.dataset("voc", rows=100, seed=1)], nodes=2)
print(*(handle.pid for handle in supervisor.start()), flush=True)
time.sleep(60)
"""


def test_nodes_die_with_a_sigkilled_supervisor():
    # The supervisor gets no chance to clean up; each node notices the
    # end-of-file on the stdin pipe the supervisor held and exits.
    supervisor = subprocess.Popen(
        [sys.executable, "-c", _SUPERVISOR_SCRIPT],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    try:
        node_pids = [int(pid) for pid in supervisor.stdout.readline().split()]
        assert len(node_pids) == 2 and all(_alive(pid) for pid in node_pids)
        supervisor.kill()
        supervisor.wait(timeout=10.0)
        deadline = time.monotonic() + 2.0
        while any(_alive(pid) for pid in node_pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(_alive(pid) for pid in node_pids)
    finally:
        supervisor.kill()
        supervisor.wait(timeout=10.0)
        supervisor.stdout.close()


def test_node_that_cannot_load_its_table_fails_the_start():
    before = set(_children(os.getpid()))
    supervisor = NodeSupervisor([TableSpec.csv("/nonexistent/table.csv")], nodes=2)
    with pytest.raises(ClusterError) as excinfo:
        supervisor.start()
    message = str(excinfo.value)
    assert "node 0 failed to start" in message
    assert "/nonexistent/table.csv" in message
    assert set(_children(os.getpid())) <= before


def test_service_options_that_are_not_json_fail_before_any_launch(monkeypatch):
    launched = []
    monkeypatch.setattr(subprocess, "Popen", lambda *args, **kwargs: launched.append(args))
    supervisor = NodeSupervisor([_SPEC], nodes=2, service_options={"backend": object()})
    with pytest.raises(ClusterError) as excinfo:
        supervisor.start()
    assert "JSON-safe" in str(excinfo.value)
    assert not launched


def test_node_that_never_announces_is_killed_and_named(monkeypatch):
    before = set(_children(os.getpid()))
    # Too short for an interpreter to even start: no node can announce.
    monkeypatch.setattr("repro.cluster.nodes.START_TIMEOUT_SECONDS", 0.05)
    supervisor = NodeSupervisor([_SPEC], nodes=2)
    with pytest.raises(ClusterError) as excinfo:
        supervisor.start()
    assert "node 0 did not report a port" in str(excinfo.value)
    assert not any(handle.alive() for handle in supervisor.handles())
    assert set(_children(os.getpid())) <= before


def _maps_numpy(pid):
    """Whether the process maps NumPy's core extension module."""
    return "_multiarray_umath" in Path("/proc", str(pid), "maps").read_text()


def test_the_cluster_front_door_maps_no_numpy():
    # `cluster serve` is the router plus the supervisor: it moves wire
    # envelopes and holds no table, so NumPy is mapped in the nodes only.
    cli = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "cluster", "serve", "--http", "0",
         "--dataset", "voc", "--rows", "100", "--nodes", "2"],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    try:
        url = cli.stdout.readline().split()[-1]
        node_pids = [int(cli.stdout.readline().split("pid=")[1].split()[0]) for _ in range(2)]
        client = RemoteAdvisor(url, timeout=30.0)
        assert client.open_session("alice").advise(_CONTEXT).answers
        with urllib.request.urlopen(f"{url}/v1/metrics") as reply:
            assert b"charles_router_forwards_total" in reply.read()
        client.close()
        assert all(_maps_numpy(pid) for pid in node_pids)
        assert not _maps_numpy(cli.pid)
    finally:
        cli.kill()
        cli.wait(timeout=10.0)
        cli.stdout.close()
