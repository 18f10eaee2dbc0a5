"""Node health tracking: probes, the node-state table, and stickiness.

The router owns one :class:`HealthMonitor`.  A background thread GETs
every node's ``/v1/health`` on a fixed interval and keeps a per-node
:class:`NodeStatus` — liveness, process identity, and the per-table
``data_version`` the node last reported.  Requests consult the table
(:meth:`HealthMonitor.is_live`) instead of probing inline, and the
router also calls :meth:`mark_dead` directly the moment a forward fails,
so failover does not wait for the next probe tick.

Death is **sticky**: a node marked dead is never probed back to life.
That is a deliberate simplification — a returning process would hold a
stale table copy (it missed every ingest broadcast while down) and
resurrecting it safely needs anti-entropy machinery this prototype does
not carry.  The cluster degrades monotonically and the operator restarts
it to heal, which is exactly the failure model the acceptance tests pin
down (typed degradation, never a hang).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.api.client import RemoteAdvisor

__all__ = ["HealthMonitor"]


@dataclass
class NodeStatus:
    """What the monitor knows about one node."""

    node_id: int
    url: str
    state: str = "unknown"  # "unknown" | "live" | "dead"
    name: str = ""
    pid: Optional[int] = None
    started_at: Optional[float] = None
    data_versions: Dict[str, Optional[int]] = field(default_factory=dict)
    probed_at: Optional[float] = None
    failures: int = 0

    def to_document(self) -> Dict[str, Any]:
        return {
            "node_id": self.node_id,
            "url": self.url,
            "state": self.state,
            "name": self.name,
            "pid": self.pid,
            "started_at": self.started_at,
            "data_versions": dict(self.data_versions),
            "probed_at": self.probed_at,
            "failures": self.failures,
        }


class HealthMonitor:
    """Tracks liveness and data versions for a set of advisor nodes.

    Parameters
    ----------
    clients:
        node id → :class:`~repro.api.client.RemoteAdvisor` for that
        node.  Probes reuse the router's clients (same timeouts).
    interval:
        Seconds between background probe sweeps.
    failure_threshold:
        Consecutive probe failures before a node is declared dead
        (direct :meth:`mark_dead` calls skip the threshold).
    """

    def __init__(
        self,
        clients: Mapping[int, RemoteAdvisor],
        interval: float = 0.5,
        failure_threshold: int = 2,
    ) -> None:
        self._clients: Dict[int, RemoteAdvisor] = dict(clients)
        self._lock = threading.Lock()
        self._status: Dict[int, NodeStatus] = {
            node_id: NodeStatus(node_id=node_id, url=client.url)
            for node_id, client in self._clients.items()
        }
        self.interval = max(0.05, float(interval))
        self.failure_threshold = max(1, int(failure_threshold))
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- probing -------------------------------------------------------------

    def probe(self, node_id: int) -> bool:
        """Probe one node now; returns its liveness after the probe.

        Dead nodes stay dead without being contacted (stickiness).
        """
        with self._lock:
            status = self._status[node_id]
            if status.state == "dead":
                return False
        # The HTTP round-trip happens outside the lock: a slow or
        # timing-out node must not stall liveness reads for the others.
        try:
            document = self._clients[node_id].health()
        except Exception:
            document = None
        now = time.time()
        with self._lock:
            status = self._status[node_id]
            if status.state == "dead":
                return False
            status.probed_at = now
            if document is None:
                status.failures += 1
                if status.failures >= self.failure_threshold or status.state != "live":
                    status.state = "dead"
                return status.state == "live"
            node_info = document.get("node") or {}
            status.state = "live"
            status.failures = 0
            status.name = str(node_info.get("node_id", status.name))
            status.pid = node_info.get("pid")
            status.started_at = node_info.get("started_at")
            # Merged, not assigned: the router may have recorded a newer
            # version (note_data_version) while this probe was in flight.
            for table, version in (document.get("data_versions") or {}).items():
                self._merge_version(status, table, version)
            return True

    def probe_all(self) -> None:
        """One sweep over every node (the router runs this at startup)."""
        for node_id in list(self._clients):
            self.probe(node_id)

    def start(self) -> None:
        """Run probe sweeps on a background daemon thread."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            thread = threading.Thread(
                target=self._run, name="cluster-health-monitor", daemon=True
            )
            self._thread = thread
        thread.start()

    def stop(self) -> None:
        self._stop.set()
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            # Joined outside the lock: the probe loop takes the lock per
            # status update and must be able to finish its last sweep.
            thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.probe_all()

    # -- the node-state table ------------------------------------------------

    def mark_dead(self, node_id: int) -> None:
        """Declare a node dead immediately (a forward to it just failed)."""
        with self._lock:
            status = self._status[node_id]
            status.state = "dead"
            status.failures = max(status.failures, self.failure_threshold)

    def is_live(self, node_id: int) -> bool:
        with self._lock:
            return self._status[node_id].state == "live"

    def live_nodes(self) -> List[int]:
        with self._lock:
            return sorted(
                node_id
                for node_id, status in self._status.items()
                if status.state == "live"
            )

    def dead_nodes(self) -> List[int]:
        with self._lock:
            return sorted(
                node_id
                for node_id, status in self._status.items()
                if status.state == "dead"
            )

    def snapshot(self) -> Dict[int, Dict[str, Any]]:
        """A JSON-safe copy of the whole node-state table."""
        with self._lock:
            return {
                node_id: status.to_document()
                for node_id, status in sorted(self._status.items())
            }

    # -- data versions -------------------------------------------------------

    @staticmethod
    def _merge_version(status: NodeStatus, table: str, version: Optional[int]) -> None:
        """Record ``version`` unless a newer one is known (they only grow)."""
        known = status.data_versions.get(table)
        stale = isinstance(known, int) and isinstance(version, int) and version < known
        if not stale:
            status.data_versions[table] = version

    def data_version(self, node_id: int, table: str) -> Optional[int]:
        """The data version ``node_id`` last reported for ``table``."""
        with self._lock:
            version = self._status[node_id].data_versions.get(table)
        return int(version) if isinstance(version, int) else None

    def note_data_version(self, node_id: int, table: str, version: int) -> None:
        """Record a data version learned outside the probe cycle.

        The router calls this right after a replicated ingest: waiting
        for the next probe sweep would leave a window where nodes appear
        to disagree on versions and fresh advice gets a false
        ``degraded`` flag.
        """
        with self._lock:
            self._merge_version(self._status[node_id], table, version)

    def max_data_version(self, table: str) -> Optional[int]:
        """The newest version of ``table`` reported by *any* node.

        Includes dead nodes' last report on purpose: if the freshest copy
        died, the survivors' answers really are behind it, and that gap
        is exactly what the ``degraded`` advice flag must surface.
        """
        with self._lock:
            versions = [
                status.data_versions.get(table) for status in self._status.values()
            ]
        known = [int(v) for v in versions if isinstance(v, int)]
        return max(known) if known else None

    def tables(self) -> List[str]:
        """Every table name any node has reported."""
        with self._lock:
            names = {
                name
                for status in self._status.values()
                for name in status.data_versions
            }
        return sorted(names)
