"""The node supervisor: N advisor server processes on one machine.

Each cluster node is a real OS process running one
:class:`~repro.service.AdvisorService` behind one
:class:`~repro.api.server.AdvisorHTTPServer` — process isolation is the
point: killing a node with SIGKILL exercises exactly the failure the
router's degradation machinery exists for, which a thread could never
simulate faithfully.

A node is a plain subprocess — ``python -m repro.cluster.node_main`` —
never a fork: the supervisor usually runs inside a threaded process
(pytest, the router's HTTP server) and forking a threaded CPython
process can deadlock in the child.  A fresh interpreter also guarantees
each node builds its tables from the
:class:`~repro.cluster.specs.TableSpec` recipes from scratch, the same
way a node on another machine would.  An N-node cluster is N + 1
processes: there is no helper process between supervisor and nodes.

The node's whole configuration (node id, host, table specs, service
options) travels as one JSON argument.  The child binds an ephemeral
port and announces ``ok <port>`` (or ``error <reason>``) on its stdout;
the supervisor blocks until every node has checked in (or a timeout
raises :class:`~repro.errors.ClusterError` naming the straggler), then
closes that pipe.  The node's stdin is a pipe from the supervisor that
carries nothing: the node exits when it reaches end-of-file, so nodes
die with the supervisor however it dies — SIGKILL included.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time
from pathlib import Path
from typing import IO, Any, Dict, List, Mapping, Optional, Sequence

from repro.cluster.specs import TableSpec
from repro.errors import ClusterError

__all__ = ["NodeHandle", "NodeSupervisor"]

_NODE_MODULE = "repro.cluster.node_main"

#: Seconds a supervisor waits for all nodes to report their ports.
START_TIMEOUT_SECONDS = 60.0


def _read_announcement(stream: IO[bytes], deadline: float) -> Optional[str]:
    """The first line of a node's stdout; ``None`` if the deadline passes."""
    data = b""
    with selectors.DefaultSelector() as selector:
        selector.register(stream, selectors.EVENT_READ)
        while b"\n" not in data:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(remaining):
                return None
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                break  # the node exited (or closed stdout) mid-line
            data += chunk
    return data.split(b"\n", 1)[0].decode("utf-8", "replace")


class NodeHandle:
    """The supervisor's view of one running node process (its port is
    known once the node announces it)."""

    __slots__ = ("node_id", "process", "host", "port")

    def __init__(self, node_id: int, process: "subprocess.Popen[bytes]", host: str) -> None:
        self.node_id = node_id
        self.process = process
        self.host = host
        self.port = 0

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def name(self) -> str:
        return f"node-{self.node_id}"

    def alive(self) -> bool:
        return self.process.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid


class NodeSupervisor:
    """Launches, tracks and kills the advisor node processes of one cluster.

    Parameters
    ----------
    specs:
        The tables every node serves — each node loads its *own* copy
        deterministically (see :mod:`repro.cluster.specs`).
    nodes:
        How many node processes to launch.
    host:
        Bind address for every node (loopback by default).
    service_options:
        Extra keyword arguments for each node's
        :class:`~repro.service.AdvisorService` (``backend``, ...); must be
        JSON-safe.

    :meth:`start` waits :data:`START_TIMEOUT_SECONDS` for every node to
    report its port.
    """

    def __init__(
        self,
        specs: Sequence[TableSpec],
        nodes: int = 2,
        host: str = "127.0.0.1",
        service_options: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if nodes < 1:
            raise ClusterError(f"a cluster needs at least one node, got {nodes}")
        if not specs:
            raise ClusterError("a cluster needs at least one table spec")
        self.specs = tuple(specs)
        self.nodes = int(nodes)
        self.host = host
        self.service_options = dict(service_options or {})
        self._handles: Dict[int, NodeHandle] = {}

    def _launch(self, node_id: int) -> "subprocess.Popen[bytes]":
        config = {
            "node_id": node_id,
            "host": self.host,
            "specs": [spec._asdict() for spec in self.specs],
            "service_options": self.service_options,
        }
        try:
            argument = json.dumps(config)
        except (TypeError, ValueError) as exc:
            raise ClusterError(f"service_options must be JSON-safe: {exc}") from exc
        # The node must import the same ``repro`` this process runs,
        # however it got onto this process's path.
        env = dict(os.environ)
        source = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (source, env.get("PYTHONPATH")) if part
        )
        return subprocess.Popen(
            [sys.executable, "-m", _NODE_MODULE, argument],
            stdin=subprocess.PIPE,  # never written: its EOF is the node's exit signal
            stdout=subprocess.PIPE,
            env=env,
        )

    def start(self) -> List[NodeHandle]:
        """Launch every node and block until all have announced a port."""
        if self._handles:
            raise ClusterError("the supervisor has already started its nodes")
        try:
            for node_id in range(self.nodes):
                self._handles[node_id] = NodeHandle(
                    node_id=node_id, process=self._launch(node_id), host=self.host
                )
            deadline = time.monotonic() + START_TIMEOUT_SECONDS
            for node_id, handle in self._handles.items():
                stdout = handle.process.stdout
                assert stdout is not None  # launched with stdout=PIPE
                line = _read_announcement(stdout, deadline)
                stdout.close()  # the node has redirected its end by now
                if line is None:
                    raise ClusterError(
                        f"node {node_id} did not report a port within "
                        f"{START_TIMEOUT_SECONDS:.0f}s"
                    )
                status, _, value = line.partition(" ")
                if status != "ok":
                    reason = value or "it exited before announcing a port"
                    raise ClusterError(f"node {node_id} failed to start: {reason}")
                handle.port = int(value)
        except ClusterError:
            self.stop()
            raise
        return self.handles()

    def handles(self) -> List[NodeHandle]:
        return [self._handles[node_id] for node_id in sorted(self._handles)]

    def urls(self) -> Dict[int, str]:
        """node id → base URL, the router's bootstrap input."""
        return {handle.node_id: handle.url for handle in self.handles()}

    def stop(self) -> None:
        """Terminate every node process and reap it."""
        for handle in self._handles.values():
            handle.process.terminate()  # a no-op once the node is reaped
        for handle in self._handles.values():
            process = handle.process
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                process.kill()
                process.wait(timeout=5.0)
            for pipe in (process.stdin, process.stdout):
                if pipe is not None:
                    pipe.close()

    def __enter__(self) -> "NodeSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
