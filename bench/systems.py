"""Systems under test: how each workload's deployment is started and stopped.

Five shapes behind one small surface (:class:`System`):

* ``inprocess`` — an :class:`~repro.service.AdvisorService` in this
  process, driven through ``submit`` (the in-process envelope API);
* ``http`` / ``cluster`` — the real CLI in a subprocess (tree), reached
  over HTTP on a port picked per run, ready once ``/v1/health`` answers;
* their ``threaded`` variants for the traced run — the same servers on
  threads of this process, so the timing wrappers of :mod:`bench.spans`
  can see inside them.

Subprocess trees run in their own session and are always torn down as a
process group — also on failure or Ctrl-C — and a server that never
becomes healthy fails the workload instead of hanging the run.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.api.client import RemoteAdvisor
from repro.api.protocol import Request, Response
from repro.api.server import AdvisorHTTPServer
from repro.cluster.router import ClusterRouter, RouterHTTPServer
from repro.errors import RemoteError
from repro.service import AdvisorService
from repro.storage.table import Table
from repro.workloads import generate_voc

from bench.workloads import TABLE_SEED, Workload

__all__ = [
    "BenchError",
    "System",
    "Tables",
    "close_all",
    "make_tables",
    "peak_rss_mb",
    "served_table",
    "start_system",
]

_SRC = Path(__file__).resolve().parent.parent / "src"
_HOST = "127.0.0.1"
#: Seconds a server may take to answer ``/v1/health`` before the workload fails.
_READY_TIMEOUT = 90.0
#: Per-request socket timeout of every client connection.
_REQUEST_TIMEOUT = 20.0
_CLUSTER_NODES = 2
#: Seconds between the router's health probes: in effect never.  At the
#: seed a probe that read a node's data version just before an ingest
#: overwrites the version the router noted right after it, and every
#: advice that node serves until the next probe is flagged ``degraded``
#: (a failed request here).  No node dies in a benchmark run, so probing
#: is not needed; the lead is recorded in the README.
_PROBE_INTERVAL = 3600.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed request)."""


def _time_ordered_voc(rows: int, seed: int) -> Table:
    """VOC rows stable-sorted by ``departure_date``, as a shipping log is written."""
    table = generate_voc(rows=rows, seed=seed)
    dates = np.asarray(table.column("departure_date").values_list())
    return table.take(np.argsort(dates, kind="stable"))


@dataclass
class Tables:
    """The generated inputs of one set-up.

    ``served`` is the table an in-process service is seeded with (``None``
    when a server generates its own from the CLI flags); ``pool`` holds
    the rows the live rounds ingest, as row mappings.
    """

    served: Optional[Table]
    pool: List[Dict[str, Any]]


def make_tables(spec: Workload) -> Tables:
    """Generate a workload's tables (always from :data:`TABLE_SEED`).

    In process, the served table is the first ``spec.rows`` rows of one
    time-ordered shipping log and the pool is its continuation, so
    ingested rows carry later dates, as appended log entries do.  A
    subprocess serves ``generate_voc(rows, seed)`` as the CLI builds it;
    its pool is a time-ordered log of its own.
    """
    if spec.system == "inprocess":
        log = _time_ordered_voc(spec.rows + spec.ingest_pool, TABLE_SEED)
        served: Optional[Table] = log.slice_rows(0, spec.rows)
        tail = log.slice_rows(spec.rows, log.num_rows)
    elif spec.ingest_pool:
        served = None
        tail = _time_ordered_voc(spec.ingest_pool, TABLE_SEED + 1)
    else:
        return Tables(None, [])
    return Tables(served, [tail.row(index) for index in range(tail.num_rows)])


def served_table(spec: Workload, tables: Tables) -> Table:
    """The table the system served before any ingest (the oracle's base)."""
    if tables.served is not None:
        return tables.served
    return generate_voc(rows=spec.rows, seed=TABLE_SEED)


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((_HOST, 0))
        return int(probe.getsockname()[1])


def _wait_healthy(url: str, alive: Callable[[], bool]) -> None:
    """Poll ``/v1/health`` until it reports ``ok``; fail rather than hang."""
    deadline = time.monotonic() + _READY_TIMEOUT
    while time.monotonic() < deadline:
        if not alive():
            raise BenchError(f"the server at {url} exited before becoming healthy")
        try:
            with urllib.request.urlopen(f"{url}/v1/health", timeout=2.0) as reply:
                if json.loads(reply.read()).get("status") == "ok":
                    return
        except (urllib.error.URLError, OSError, ValueError):
            pass
        time.sleep(0.02)
    raise BenchError(f"the server at {url} was not healthy within {_READY_TIMEOUT:.0f}s")


def _group_pids(pgid: int) -> List[int]:
    """Live (non-zombie) processes of one process group, from ``/proc``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name: state ppid pgrp ...
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) >= 3 and fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def peak_rss_mb(pids: List[int]) -> float:
    """Summed peak resident set size (``VmHWM``) of the given processes."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


class System:
    """What a workload talks to; subclasses own one deployment each."""

    def connect(self) -> Callable[[Request], Response]:
        """A fresh connection: a callable executing one request envelope."""
        raise NotImplementedError

    def stats(self) -> List[Dict[str, Any]]:
        """The ``AdvisorService.stats()`` document of every serving node."""
        raise NotImplementedError

    def router_counters(self) -> Dict[str, int]:
        """The cluster router's forwarding counters (empty without a router)."""
        return {}

    def pids(self) -> List[int]:
        """Every process running the system under test."""
        return [os.getpid()]

    def ready(self) -> None:
        """Block until the system answers requests (fail rather than hang)."""

    def close(self) -> None:
        """Stop the system and wait until every process of it has ended."""


class InProcessSystem(System):
    def __init__(self, spec: Workload, table: Table) -> None:
        self.service = AdvisorService(table, batch_window=0.0, backend=spec.backend)

    def connect(self) -> Callable[[Request], Response]:
        return self.service.submit

    def stats(self) -> List[Dict[str, Any]]:
        return [self.service.stats()]


class _RemoteSystem(System):
    """A system reached over HTTP at ``self.url``."""

    url: str

    def connect(self) -> Callable[[Request], Response]:
        return RemoteAdvisor(self.url, timeout=_REQUEST_TIMEOUT).rpc

    def stats(self) -> List[Dict[str, Any]]:
        stats = RemoteAdvisor(self.url, timeout=_REQUEST_TIMEOUT).stats()
        nodes = stats.get("nodes")
        if isinstance(nodes, dict):  # the router's fan-out document
            return [nodes[key] for key in sorted(nodes)]
        return [stats]

    def router_counters(self) -> Dict[str, int]:
        try:
            document = RemoteAdvisor(self.url, timeout=_REQUEST_TIMEOUT).cluster()
        except RemoteError:  # a plain node answers 404: no router, no counters
            return {}
        return dict(document.get("router", {}).get("counters", {}))


#: Whatever owns child processes and is not yet closed, so that no exit
#: path — an error, a hard time limit, Ctrl-C or SIGTERM — leaves one behind.
_LIVE: "set[Any]" = set()


def close_all() -> None:
    """Stop every child process this module still has running."""
    for owner in list(_LIVE):
        owner.close()


class SubprocessSystem(_RemoteSystem):
    """The CLI's ``serve --http`` or ``cluster serve`` in its own session."""

    def __init__(self, spec: Workload) -> None:
        port = _free_port()
        command = [sys.executable, "-m", "repro.cli"]
        command += ["cluster", "serve"] if spec.system == "cluster" else ["serve"]
        command += ["--http", str(port), "--dataset", "voc"]
        command += ["--rows", str(spec.rows), "--seed", str(TABLE_SEED)]
        if spec.system == "cluster":
            command += ["--nodes", str(_CLUSTER_NODES), "--replicas", "1"]
            command += ["--probe-interval", str(_PROBE_INTERVAL)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(_SRC), env.get("PYTHONPATH")) if part
        )
        self.url = f"http://{_HOST}:{port}"
        self._process = subprocess.Popen(
            command,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            start_new_session=True,  # own process group: torn down as a tree
        )
        _LIVE.add(self)

    def ready(self) -> None:
        _wait_healthy(self.url, lambda: self._process.poll() is None)

    def pids(self) -> List[int]:
        return _group_pids(self._process.pid)

    def close(self) -> None:
        process, pgid = self._process, self._process.pid
        # The servers hold nothing durable, so the whole tree (CLI, node
        # processes, multiprocessing's resource tracker) is killed as a
        # group: no graceful path that could hang or leave orphans.
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while _group_pids(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)
        if _group_pids(pgid):
            raise BenchError(f"process group {pgid} survived SIGKILL")
        _LIVE.discard(self)


class ThreadedSystem(_RemoteSystem):
    """The same servers on threads of this process (the traced run)."""

    def __init__(self, spec: Workload) -> None:
        nodes = _CLUSTER_NODES if spec.system == "cluster" else 1
        self._router: Optional[ClusterRouter] = None
        self._servers: List[Any] = []
        try:
            for index in range(nodes):
                # Same construction as the CLI: generated table, default service.
                service = AdvisorService(generate_voc(rows=spec.rows, seed=TABLE_SEED))
                server = AdvisorHTTPServer(service, port=0, node_id=f"node-{index}")
                self._servers.append(server.start())
            front = self._servers[0]
            if spec.system == "cluster":
                self._router = ClusterRouter(
                    {index: server.url for index, server in enumerate(self._servers)},
                    replicas=1,
                    probe_interval=_PROBE_INTERVAL,
                ).start()
                front = RouterHTTPServer(self._router, port=0).start()
                self._servers.append(front)
            self.url = front.url
        except BaseException:
            self.close()
            raise

    def ready(self) -> None:
        _wait_healthy(self.url, lambda: True)

    def close(self) -> None:
        if self._router is not None:
            self._router.close()
            self._router = None
        for server in reversed(self._servers):
            server.shutdown()
        self._servers = []


def start_system(
    spec: Workload, served: Optional[Table] = None, threaded: bool = False
) -> System:
    """Deploy one workload's system under test (``ready()`` waits for it)."""
    if spec.system == "inprocess":
        if served is None:
            raise BenchError("an in-process system needs its table")
        return InProcessSystem(spec, served)
    if spec.system in ("http", "cluster"):
        return ThreadedSystem(spec) if threaded else SubprocessSystem(spec)
    raise BenchError(f"workload {spec.name!r} names an unknown system {spec.system!r}")
