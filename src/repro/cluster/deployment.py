"""AdvisorCluster: supervisor + router + front door in one object.

The one-call deployment the CLI, the tests and the benchmark all use::

    specs = [TableSpec.dataset("voc", rows=500)]
    with AdvisorCluster(specs, nodes=2, replicas=1) as cluster:
        advisor = RemoteAdvisor(cluster.url)
        session = advisor.open_session("alice")
        ...
        cluster.kill_node(0)          # failure injection
        session.advise(refresh=True)  # fails over transparently

``start()`` launches the node processes, waits for their ports, builds the
router over them, probes once so the node-state table starts accurate,
and binds the HTTP front door.  ``stop()`` tears everything down in
reverse.  The context manager form guarantees no node processes outlive
the test that launched them.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence

from repro.cluster.nodes import NodeHandle, NodeSupervisor
from repro.cluster.router import ClusterRouter, RouterHTTPServer
from repro.cluster.specs import TableSpec
from repro.errors import ClusterError

__all__ = ["AdvisorCluster"]


class AdvisorCluster:
    """A local advisor cluster: N node processes behind one router.

    Parameters
    ----------
    specs:
        The tables every node serves (see :class:`TableSpec`).
    nodes:
        Node process count.
    replicas:
        Failover candidates per shard.
    host, port:
        Bind address of the router's front door (``0`` = ephemeral).
    service_options:
        Per-node :class:`~repro.service.AdvisorService` keyword
        arguments (must be JSON-safe: they reach each node as JSON).
    probe_interval:
        Router health-probe cadence in seconds.
    """

    def __init__(
        self,
        specs: Sequence[TableSpec],
        nodes: int = 2,
        replicas: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        service_options: Optional[Mapping[str, Any]] = None,
        probe_interval: float = 0.5,
    ) -> None:
        self.supervisor = NodeSupervisor(
            specs, nodes=nodes, host=host, service_options=service_options
        )
        self.replicas = int(replicas)
        self.host = host
        self.port = int(port)
        self.probe_interval = float(probe_interval)
        self.router: Optional[ClusterRouter] = None
        self.server: Optional[RouterHTTPServer] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AdvisorCluster":
        """Launch the nodes, start the router, open the front door."""
        if self.router is not None:
            raise ClusterError("the cluster is already running")
        self.supervisor.start()
        try:
            self.router = ClusterRouter(
                self.supervisor.urls(),
                replicas=self.replicas,
                probe_interval=self.probe_interval,
            ).start()
            self.server = RouterHTTPServer(self.router, host=self.host, port=self.port)
            self.server.start()
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Tear down front door, router and every node process."""
        server, self.server = self.server, None
        router, self.router = self.router, None
        if server is not None:
            server.shutdown()
        if router is not None:
            router.close()
        self.supervisor.stop()

    def __enter__(self) -> "AdvisorCluster":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- surface -------------------------------------------------------------

    @property
    def url(self) -> str:
        """The front door's base URL (what clients connect to)."""
        if self.server is None:
            raise ClusterError("the cluster is not running")
        return self.server.url

    def handles(self) -> List[NodeHandle]:
        return self.supervisor.handles()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.server is not None else "stopped"
        return (
            f"AdvisorCluster(nodes={self.supervisor.nodes}, "
            f"replicas={self.replicas}, {state})"
        )
