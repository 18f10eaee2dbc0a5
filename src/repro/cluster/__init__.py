"""The cluster tier: scale-out of the advisor service across processes.

Charles (CIDR 2013) frames the advisor as a big-data service; this
package is the scale-out story of the reproduction.  It keeps the wire
protocol of :mod:`repro.api` untouched and adds, purely with the
standard library:

* :mod:`~repro.cluster.specs` — deterministic table recipes every node
  loads identically;
* :mod:`~repro.cluster.nodes` — a supervisor launching N advisor server
  *processes* as plain subprocesses of
  :mod:`~repro.cluster.node_main` (JSON configuration on the command
  line, ephemeral ports announced on stdout, stdin as the lifeline): N
  nodes are N + 1 processes;
* :mod:`~repro.cluster.shardmap` — the explicit consistent-hash
  assignment of sessions and tables to nodes;
* :mod:`~repro.cluster.health` — probes and the sticky node-state table;
* :mod:`~repro.cluster.router` — the HTTP front door: verbatim envelope
  forwarding, ingest replication, journal-based session resurrection,
  typed degradation;
* :mod:`~repro.cluster.deployment` — :class:`AdvisorCluster`, the
  one-call supervisor+router bundle behind ``charles cluster serve``.

The design contract, enforced by ``tests/cluster``: a client must not be
able to tell the cluster from a single server — advice routed through
the front door is byte-identical to a local session's — until nodes die,
at which point answers stay typed (``DegradedError``, ``advice.degraded``)
rather than hanging or leaking socket errors.
"""

from repro import _lazy_exports

#: Each public name → its module, imported on first access: a node needs
#: the spec, not the router; ``charles serve`` needs the dataset names only.
_EXPORTS = {
    "AdvisorCluster": "repro.cluster.deployment",
    "ClusterRouter": "repro.cluster.router",
    "HealthMonitor": "repro.cluster.health",
    "NodeHandle": "repro.cluster.nodes",
    "NodeSupervisor": "repro.cluster.nodes",
    "RouterHTTPServer": "repro.cluster.router",
    "ShardMap": "repro.cluster.shardmap",
    "TableSpec": "repro.cluster.specs",
    "session_key": "repro.cluster.shardmap",
    "table_key": "repro.cluster.shardmap",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
