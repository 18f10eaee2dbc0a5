"""The cluster router: one HTTP front door over many advisor nodes.

The router speaks exactly the protocol a single
:class:`~repro.api.server.AdvisorHTTPServer` does — same ``POST
/v1/rpc`` envelopes, same ``GET /v1/health`` — so a
:class:`~repro.api.client.RemoteAdvisor` cannot tell a cluster from one
server.  Behind the door it:

* **routes** every operation to an owning node through the explicit
  :class:`~repro.cluster.shardmap.ShardMap` — session ops hash by
  session name, table ops by table name — forwarding the request
  envelope *verbatim* (:meth:`RemoteAdvisor.forward`), which is what
  makes a routed answer byte-identical to a direct one;
* **replicates** ingest to every live node, owner first, serialized per
  router so all table copies advance through identical data versions;
* **degrades** instead of hanging: a node that stops answering is marked
  dead, its sessions are *resurrected* on the next candidate by
  replaying a per-session journal (open → last advise → drills), and
  when no candidate is left the client gets a typed
  :class:`~repro.errors.DegradedError` envelope.  Advice served from a
  node whose table copy is known to lag the cluster's newest data
  version is flagged ``degraded`` in-band.

Operation classes
-----------------

The router keeps no list of operations.  Each entry of
:data:`repro.api.protocol.OPERATIONS` names its own routing class
(``OPERATIONS[op].route``) and :meth:`ClusterRouter._route` calls the
``_route_<class>`` method of that name — ``session`` (by session name,
journaled), ``table`` (by table name, stateless), ``replicated`` (a
mutation applied to every live node) or ``fanout`` (every node asked,
answers aggregated) — so every operation is routed exactly one way by
construction.  An operation the table does not know is forwarded to a
node, which answers for it: the node stays the authority.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.client import RemoteAdvisor
from repro.api.codec import SCHEMA_VERSION
from repro.api.protocol import API_VERSION, OPERATIONS, Response, next_request_id
from repro.api.server import HTTPFrontServer
from repro.cluster.health import HealthMonitor
from repro.cluster.shardmap import ShardMap, session_key, table_key
from repro.errors import (
    CharlesError,
    ClusterError,
    DegradedError,
    RemoteError,
    RemoteTransportError,
)
from repro.obs import MetricsRegistry, SlowOpLog, current_span, start_trace
from repro.obs.metrics import render_document

__all__ = ["ClusterRouter", "RouterHTTPServer"]


def _envelope(op: str, session: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """A wire request envelope built router-side (journal replay)."""
    return {
        "api_version": API_VERSION,
        "schema": SCHEMA_VERSION,
        "op": op,
        "session": session,
        "request_id": next_request_id(),
        "params": params,
    }


class SessionJournal:
    """The breadcrumbs needed to rebuild one session on another node.

    Not a full op log: exploration state is fully determined by the
    session's open parameters, its *last* context-setting advise, and the
    drill stack accumulated since — so that is all the router keeps.
    Parameters are stored in **wire form**, exactly as the client sent
    them, and replayed verbatim; combined with deterministic advice this
    makes a resurrected session byte-identical to the lost one.
    """

    __slots__ = ("open_params", "advise_params", "drills")

    def __init__(self, open_params: Mapping[str, Any]) -> None:
        self.open_params: Dict[str, Any] = dict(open_params)
        self.advise_params: Optional[Dict[str, Any]] = None
        self.drills: List[Tuple[int, int]] = []

    def record(self, op: str, params: Mapping[str, Any]) -> None:
        """Fold one *successful* operation into the journal."""
        if op == "advise":
            if params.get("current"):
                return  # a read of existing advice, no state change
            if params.get("context") is None and params.get("refresh"):
                return  # refresh recomputes in place, context unchanged
            advise: Dict[str, Any] = {"context": params.get("context")}
            mode = params.get("mode")
            if isinstance(mode, str):  # null: the node's default, on replay too
                advise["mode"] = mode
            self.advise_params = advise
            self.drills.clear()
        elif op == "drill":
            self.drills.append(
                (int(params.get("answer_index", 0)), int(params.get("segment_index", 0)))
            )
        elif op == "back":
            if self.drills:
                self.drills.pop()
        elif op == "refine":
            # The session's current advice is now exact; replay as an
            # exact advise (deterministically identical, one op cheaper).
            if self.advise_params is not None:
                self.advise_params["mode"] = "exact"

    def replay_payloads(self, session: str) -> List[Dict[str, Any]]:
        """The request envelopes that rebuild this session from nothing."""
        open_params = dict(self.open_params)
        open_params["replace"] = True
        payloads = [_envelope("open_session", session, open_params)]
        if self.advise_params is not None:
            payloads.append(_envelope("advise", session, dict(self.advise_params)))
        for answer_index, segment_index in self.drills:
            payloads.append(
                _envelope(
                    "drill",
                    session,
                    {"answer_index": answer_index, "segment_index": segment_index},
                )
            )
        return payloads

    def to_document(self) -> Dict[str, Any]:
        return {
            "open_params": dict(self.open_params),
            "advise_params": (
                dict(self.advise_params) if self.advise_params is not None else None
            ),
            "drills": [list(pair) for pair in self.drills],
        }


class ClusterRouter:
    """Routes wire envelopes across a set of advisor nodes.

    Parameters
    ----------
    node_urls:
        node id → base URL (the supervisor's :meth:`urls` output).
    replicas:
        Failover candidates per shard (see :class:`ShardMap`).
    timeout, retries:
        Transport knobs for the per-node
        :class:`~repro.api.client.RemoteAdvisor` clients.
    probe_interval:
        Seconds between background health sweeps.
    """

    def __init__(
        self,
        node_urls: Mapping[int, str],
        replicas: int = 1,
        timeout: float = 15.0,
        retries: int = 1,
        probe_interval: float = 0.5,
    ) -> None:
        if not node_urls:
            raise ClusterError("a router needs at least one node url")
        self._clients: Dict[int, RemoteAdvisor] = {
            node_id: RemoteAdvisor(url, timeout=timeout, retries=retries)
            for node_id, url in sorted(node_urls.items())
        }
        self._shard_map = ShardMap(sorted(self._clients), replicas=replicas)
        self._monitor = HealthMonitor(self._clients, interval=probe_interval)
        # The router's own instruments; metrics_document() merges them
        # with every node's.
        self.metrics = MetricsRegistry()
        self._forward_seconds = {
            node_id: self.metrics.histogram(
                "router_forward_seconds",
                "Router-side latency of one forward to a node.",
                labels={"node": str(node_id)},
            )
            for node_id in self._clients
        }
        self._lock = threading.RLock()
        # Serializes replicated mutations: every node must see every
        # ingest in the same order or data versions drift apart.
        self._ingest_lock = threading.Lock()
        self._journals: Dict[str, SessionJournal] = {}
        self._placements: Dict[str, int] = {}
        self._session_locks: Dict[str, threading.Lock] = {}
        self._counters: Dict[str, int] = {
            "requests": 0,
            "forwards": 0,
            "failovers": 0,
            "resurrections": 0,
            "node_failures": 0,
            "degraded_requests": 0,
            "degraded_answers": 0,
            "replications": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    @property
    def shard_map(self) -> ShardMap:
        return self._shard_map

    @property
    def monitor(self) -> HealthMonitor:
        return self._monitor

    def start(self) -> "ClusterRouter":
        """Probe every node once, then keep probing in the background."""
        self._monitor.probe_all()
        self._monitor.start()
        return self

    def close(self) -> None:
        self._monitor.stop()
        for client in self._clients.values():
            client.close()

    def __enter__(self) -> "ClusterRouter":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------

    def _bump(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def _session_lock(self, session: str) -> threading.Lock:
        with self._lock:
            lock = self._session_locks.get(session)
            if lock is None:
                lock = threading.Lock()
                self._session_locks[session] = lock
            return lock

    @staticmethod
    def _adopt_reply_trace(reply: Dict[str, Any]) -> None:
        """Move a node reply's span tree under the router's ambient span.

        Fan-out and replication build fresh aggregate envelopes, so a
        node's ``trace`` would otherwise be dropped with the rest of its
        envelope; adopting it here keeps every contacted node's subtree
        in the assembled trace.  No-op when the request is untraced.
        """
        node_trace = reply.pop("trace", None)
        parent = current_span()
        if parent is not None and isinstance(node_trace, Mapping):
            parent.adopt(dict(node_trace))

    @staticmethod
    def _error_envelope(
        op: str, session: str, request_id: str, error: CharlesError
    ) -> Dict[str, Any]:
        return Response(
            ok=False,
            op=op,
            session=session,
            error=error.message,
            error_code=error.code,
            request_id=request_id,
        ).to_wire()

    # -- the front door ------------------------------------------------------

    def handle_wire(self, payload: Any) -> Dict[str, Any]:
        """Route one JSON-safe request envelope; never raises.

        The envelope is *not* decoded here — only ``op``, ``session`` and
        the table name are read; the body travels to the owning node
        verbatim so the node's answer is byte-identical to a direct call.
        A request carrying a ``trace`` extension gets a router-side root
        span; the trace context is re-stamped onto the forwarded envelope
        so the owning node's spans join the same trace, and the node's
        span tree (returned in the reply's ``trace``) is adopted as a
        child — the client receives one assembled tree under one
        ``trace_id`` spanning router and shard.
        """
        trace = payload.get("trace") if isinstance(payload, Mapping) else None
        if not isinstance(trace, Mapping):
            return self._route(payload)
        op = str(payload.get("op", "")) or "request"
        root = start_trace(
            f"router.{op}",
            trace_id=trace.get("trace_id"),
            parent_id=trace.get("parent_id"),
            op=op,
        )
        forwarded = dict(payload)
        forwarded["trace"] = {"trace_id": root.trace_id, "parent_id": root.span_id}
        with root:
            reply = self._route(forwarded)
        node_trace = reply.pop("trace", None)
        if isinstance(node_trace, Mapping):
            root.adopt(dict(node_trace))
        reply["trace"] = root.to_document()
        return reply

    def _route(self, payload: Any) -> Dict[str, Any]:
        """The untraced routing body behind :meth:`handle_wire`."""
        if not isinstance(payload, Mapping):
            error = ClusterError(
                f"request envelope must be an object, got {type(payload).__name__}"
            )
            return self._error_envelope("", "", "", error)
        op = payload.get("op", "")
        request_id = str(payload.get("request_id", ""))
        session = payload.get("session", "")
        if not isinstance(session, str):
            session = ""
        params = payload.get("params")
        params = params if isinstance(params, Mapping) else {}
        self._bump("requests")
        entry = OPERATIONS.get(op) if isinstance(op, str) else None
        if entry is None:
            # Not an operation the table knows: forward it statelessly and
            # let the node answer (or reject) it.
            key = session_key(session) if session else table_key(params.get("table"))
            return self._forward_with_failover(
                str(op), session, request_id, payload, key
            )
        route = getattr(self, f"_route_{entry.route}")
        return route(op, session, request_id, payload, params)

    def _route_session(
        self,
        op: str,
        session: str,
        request_id: str,
        payload: Mapping[str, Any],
        params: Mapping[str, Any],
    ) -> Dict[str, Any]:
        """Forward to the node owning the session, one op at a time."""
        with self._session_lock(session):
            return self._forward_with_failover(
                op, session, request_id, payload, session_key(session)
            )

    def _route_table(
        self,
        op: str,
        session: str,
        request_id: str,
        payload: Mapping[str, Any],
        params: Mapping[str, Any],
    ) -> Dict[str, Any]:
        """Forward to the node owning the table; nothing is journaled."""
        key = table_key(params.get("table"))
        return self._forward_with_failover(op, session, request_id, payload, key)

    # -- routed forwarding with failover -------------------------------------

    def _forward_with_failover(
        self,
        op: str,
        session: str,
        request_id: str,
        payload: Mapping[str, Any],
        key: str,
    ) -> Dict[str, Any]:
        entry = OPERATIONS.get(op)
        session_op = entry is not None and entry.route == "session"
        candidates = self._shard_map.route(key)
        failed_over = False
        for node_id in candidates:
            if not self._monitor.is_live(node_id):
                failed_over = True
                continue
            if failed_over and not self._monitor.probe(node_id):
                # A failover target is probed before it serves, so its
                # liveness and data versions are current, not last-tick.
                continue
            try:
                if session_op and op != "open_session":
                    self._ensure_session(node_id, session)
                started = time.perf_counter()
                reply = self._clients[node_id].forward(dict(payload))
                self._forward_seconds[node_id].observe(time.perf_counter() - started)
            except RemoteTransportError:
                self._monitor.mark_dead(node_id)
                self._bump("node_failures")
                failed_over = True
                continue
            except RemoteError as error:
                # The node answered but outside the protocol (bad path,
                # non-envelope body): surface it, do not fail over — the
                # node is alive and a replica would answer identically.
                return self._error_envelope(op, session, request_id, error)
            except DegradedError as error:
                return self._error_envelope(op, session, request_id, error)
            self._bump("forwards")
            if failed_over:
                self._bump("failovers")
            if session_op:
                self._record_session_op(op, session, node_id, payload, reply)
            if entry is not None and entry.advice and reply.get("ok"):
                self._flag_if_stale(node_id, session, reply)
            return reply
        self._bump("degraded_requests")
        error = DegradedError(
            f"no live node can serve {op!r}: candidates "
            f"{list(candidates)} are all dead"
        )
        return self._error_envelope(op, session, request_id, error)

    def _ensure_session(self, node_id: int, session: str) -> None:
        """Resurrect ``session`` on ``node_id`` if it lives elsewhere.

        Replays the session's journal (open → advise → drills) against
        the target node.  Transport failures propagate as
        :class:`~repro.errors.RemoteTransportError` (the caller fails
        over); a replay step the node *rejects* raises
        :class:`~repro.errors.DegradedError` — the state cannot be
        rebuilt there, and pretending otherwise would serve wrong answers.
        """
        with self._lock:
            journal = self._journals.get(session)
            placement = self._placements.get(session)
        if journal is None or placement == node_id:
            return
        for replay in journal.replay_payloads(session):
            reply = self._clients[node_id].forward(replay)
            if not reply.get("ok"):
                error = reply.get("error") or {}
                raise DegradedError(
                    f"cannot resurrect session {session!r} on node {node_id}: "
                    f"replay of {replay.get('op')!r} failed: "
                    f"{error.get('message') or 'unknown error'}"
                )
        with self._lock:
            self._placements[session] = node_id
        self._bump("resurrections")

    def _record_session_op(
        self,
        op: str,
        session: str,
        node_id: int,
        payload: Mapping[str, Any],
        reply: Mapping[str, Any],
    ) -> None:
        """Fold a successful session op into journal and placement."""
        if not reply.get("ok"):
            return
        params = payload.get("params")
        params = params if isinstance(params, Mapping) else {}
        with self._lock:
            if op == "open_session":
                self._journals[session] = SessionJournal(params)
                self._placements[session] = node_id
            elif op == "close_session":
                self._journals.pop(session, None)
                self._placements.pop(session, None)
            else:
                journal = self._journals.get(session)
                if journal is not None:
                    journal.record(op, params)
                self._placements[session] = node_id

    def _session_table(self, session: str) -> Optional[str]:
        """The table a session explores, as well as the router can tell."""
        with self._lock:
            journal = self._journals.get(session)
        if journal is not None:
            table = journal.open_params.get("table")
            if isinstance(table, str):
                return table
        tables = self._monitor.tables()
        return tables[0] if len(tables) == 1 else None

    def _flag_if_stale(
        self, node_id: int, session: str, reply: Dict[str, Any]
    ) -> None:
        """Set ``degraded`` on advice served from a known-lagging copy.

        Compares the serving node's last-reported ``data_version`` for
        the session's table against the newest version *any* node (live
        or dead) has reported.  A strictly older copy means an ingest
        this node missed — the answer is still served, but flagged.
        """
        result = reply.get("result")
        if not isinstance(result, dict) or result.get("$type") != "advice":
            return
        table = self._session_table(session)
        if table is None:
            return
        served = self._monitor.data_version(node_id, table)
        newest = self._monitor.max_data_version(table)
        if served is not None and newest is not None and served < newest:
            result["degraded"] = True
            self._bump("degraded_answers")

    # -- replicated mutations ------------------------------------------------

    def _route_replicated(
        self,
        op: str,
        session: str,
        request_id: str,
        payload: Mapping[str, Any],
        params: Mapping[str, Any],
    ) -> Dict[str, Any]:
        """Apply a mutation to every live node, owner first.

        The shard owner answers for the request; every other live node
        applies the same envelope so all table copies stay in lockstep.
        A replica that *rejects* what the owner accepted has diverged and
        is retired (marked dead) rather than left to serve stale data.
        """
        key = table_key(params.get("table"))
        route = self._shard_map.route(key)
        ordered = list(route) + [
            node_id for node_id in self._shard_map.node_ids if node_id not in route
        ]
        with self._ingest_lock:
            primary_reply: Optional[Dict[str, Any]] = None
            applied: List[int] = []
            for node_id in ordered:
                if not self._monitor.is_live(node_id):
                    continue
                try:
                    reply = self._clients[node_id].forward(dict(payload))
                except RemoteTransportError:
                    self._monitor.mark_dead(node_id)
                    self._bump("node_failures")
                    continue
                except RemoteError as error:
                    if primary_reply is None:
                        return self._error_envelope(op, session, request_id, error)
                    self._monitor.mark_dead(node_id)
                    self._bump("node_failures")
                    continue
                self._adopt_reply_trace(reply)
                if primary_reply is None:
                    if not reply.get("ok"):
                        # The owner rejected the mutation (validation):
                        # nothing was applied anywhere; pass it through.
                        return reply
                    primary_reply = reply
                    applied.append(node_id)
                    self._note_ingest(node_id, params, reply)
                elif reply.get("ok"):
                    applied.append(node_id)
                    self._bump("replications")
                    self._note_ingest(node_id, params, reply)
                else:
                    self._monitor.mark_dead(node_id)
                    self._bump("node_failures")
            self._bump("forwards")
            if primary_reply is None:
                self._bump("degraded_requests")
                error = DegradedError(f"no live node accepted the {op!r} mutation")
                return self._error_envelope(op, session, request_id, error)
            result = primary_reply.get("result")
            if isinstance(result, dict):
                result["cluster"] = {"applied_on": sorted(applied)}
            return primary_reply

    def _note_ingest(
        self, node_id: int, params: Mapping[str, Any], reply: Mapping[str, Any]
    ) -> None:
        """Push the post-ingest data version into the health table now.

        Without this, the window between an ingest and the next probe
        sweep would make :meth:`_flag_if_stale` see nodes at mixed
        versions and flag perfectly fresh advice as degraded.
        """
        result = reply.get("result")
        if not isinstance(result, dict):
            return
        version = result.get("data_version")
        table = result.get("table")
        if not isinstance(table, str):
            table = params.get("table") if isinstance(params.get("table"), str) else None
        if table is None:
            tables = self._monitor.tables()
            table = tables[0] if len(tables) == 1 else None
        if isinstance(version, int) and table is not None:
            self._monitor.note_data_version(node_id, table, version)

    # -- fan-out aggregation -------------------------------------------------

    def _route_fanout(
        self,
        op: str,
        session: str,
        request_id: str,
        payload: Mapping[str, Any],
        params: Mapping[str, Any],
    ) -> Dict[str, Any]:
        """Ask every live node and aggregate (``stats`` and ``slow_ops``)."""
        replies: Dict[int, Dict[str, Any]] = {}
        for node_id in self._shard_map.node_ids:
            if not self._monitor.is_live(node_id):
                continue
            try:
                reply = self._clients[node_id].forward(dict(payload))
            except RemoteTransportError:
                self._monitor.mark_dead(node_id)
                self._bump("node_failures")
                continue
            except RemoteError:
                continue
            if reply.get("ok"):
                self._adopt_reply_trace(reply)
                replies[node_id] = reply
        self._bump("forwards")
        if not replies:
            self._bump("degraded_requests")
            error = DegradedError(f"no live node answered the {op!r} fan-out")
            return self._error_envelope(op, session, request_id, error)
        elapsed = 0.0
        for reply in replies.values():
            value = reply.get("elapsed_seconds")
            if isinstance(value, (int, float)):
                elapsed += float(value)
        if op == "slow_ops":
            result = self._aggregate_slow_ops(params.get("limit"), replies)
        else:
            result = self._aggregate_stats(replies)
        return {
            "api_version": API_VERSION,
            "schema": SCHEMA_VERSION,
            "ok": True,
            "op": op,
            "session": session,
            "request_id": request_id,
            "elapsed_seconds": elapsed,
            "result": result,
            "error": None,
        }

    def _aggregate_stats(
        self, replies: Mapping[int, Mapping[str, Any]]
    ) -> Dict[str, Any]:
        total = 0
        nodes_doc: Dict[str, Any] = {}
        for node_id, reply in sorted(replies.items()):
            result = reply.get("result")
            nodes_doc[str(node_id)] = result
            if isinstance(result, dict) and isinstance(result.get("requests"), int):
                total += result["requests"]
        return {
            "requests": total,
            "nodes": nodes_doc,
            "router": self.counters(),
        }

    @staticmethod
    def _aggregate_slow_ops(
        limit: Any, replies: Mapping[int, Mapping[str, Any]]
    ) -> Dict[str, Any]:
        """Re-rank the union of every node's worst spans per operation."""
        if not isinstance(limit, int) or isinstance(limit, bool):
            limit = None
        documents = [
            reply["result"]
            for _, reply in sorted(replies.items())
            if isinstance(reply.get("result"), Mapping)
        ]
        merged = SlowOpLog.merge_documents(documents, limit=limit)
        merged["nodes"] = sorted(replies)
        return merged

    # -- GET documents -------------------------------------------------------

    def health_document(self) -> Dict[str, Any]:
        """The router's liveness document (same shape family as a node's)."""
        live = self._monitor.live_nodes()
        dead = self._monitor.dead_nodes()
        if not live:
            status = "down"
        elif dead:
            status = "degraded"
        else:
            status = "ok"
        with self._lock:
            sessions = len(self._placements)
        return {
            "status": status,
            "api_version": API_VERSION,
            "schema": SCHEMA_VERSION,
            "role": "router",
            "operations": sorted(OPERATIONS),
            "tables": self._monitor.tables(),
            "sessions": sessions,
            "nodes": {"live": live, "dead": dead},
        }

    def stats_document(self) -> Dict[str, Any]:
        """The aggregated statistics document (``GET /v1/stats``)."""
        envelope = self._route_fanout(
            "stats", "", next_request_id(), _envelope("stats", "", {}), {}
        )
        return {
            "api_version": API_VERSION,
            "schema": SCHEMA_VERSION,
            "stats": envelope.get("result"),
        }

    def metrics_document(self) -> Dict[str, Any]:
        """Cluster-wide metrics: every live node's document, merged.

        Counters and gauges sum across nodes; latency histograms merge
        their quantile sketches, so the router's ``/v1/metrics`` serves
        cluster p50/p95/p99 lines with an honest rank bound.  The
        router's own forwarding counters ride along as
        ``router_<name>_total`` rows.
        """
        documents: List[Dict[str, Any]] = []
        for node_id in self._shard_map.node_ids:
            if not self._monitor.is_live(node_id):
                continue
            try:
                documents.append(self._clients[node_id].metrics_document())
            except RemoteTransportError:
                self._monitor.mark_dead(node_id)
                self._bump("node_failures")
            except RemoteError:
                continue
        merged = MetricsRegistry.merge_documents(documents + [self.metrics.to_document()])
        for name, value in sorted(self.counters().items()):
            merged["counters"].append(
                {
                    "name": f"router_{name}_total",
                    "labels": {},
                    "help": f"Router {name.replace('_', ' ')} count.",
                    "value": value,
                }
            )
        merged["nodes"] = len(documents)
        return merged

    def metrics_text(self) -> str:
        """The merged cluster metrics in Prometheus text format."""
        return render_document(self.metrics_document())

    def slow_ops_document(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The merged cluster slow-op log (``GET``-side convenience)."""
        params: Dict[str, Any] = {} if limit is None else {"limit": limit}
        envelope = self._route_fanout(
            "slow_ops", "", next_request_id(), _envelope("slow_ops", "", params), params
        )
        result = envelope.get("result")
        return result if isinstance(result, dict) else {"per_op": 0, "ops": {}}

    def cluster_document(self) -> Dict[str, Any]:
        """Topology and routing state (``GET /v1/cluster``)."""
        with self._lock:
            placements = dict(sorted(self._placements.items()))
        return {
            "api_version": API_VERSION,
            "schema": SCHEMA_VERSION,
            "router": {
                "nodes": list(self._shard_map.node_ids),
                "replicas": self._shard_map.replicas,
                "shards": self._shard_map.shards,
                "counters": self.counters(),
            },
            "shard_map": self._shard_map.to_document(),
            "nodes": {
                str(node_id): document
                for node_id, document in self._monitor.snapshot().items()
            },
            "sessions": placements,
        }


class RouterHTTPServer(HTTPFrontServer):
    """The cluster's HTTP front door.

    Serves the identical surface a single-node
    :class:`~repro.api.server.AdvisorHTTPServer` does, plus
    ``GET /v1/cluster`` for topology; every request envelope goes through
    :meth:`ClusterRouter.handle_wire`.
    """

    def __init__(
        self,
        router: ClusterRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ) -> None:
        self.router = router
        super().__init__(host=host, port=port, quiet=quiet)
        self.export_http_metrics(router.metrics, front="router")

    def handle_rpc(self, payload: Any) -> Dict[str, Any]:
        return self.router.handle_wire(payload)

    def get_document(self, path: str) -> Optional[Dict[str, Any]]:
        if path == "/v1/health":
            return self.router.health_document()
        if path == "/v1/stats":
            return self.router.stats_document()
        if path == "/v1/cluster":
            return self.router.cluster_document()
        if path == "/v1/metrics.json":
            return {
                "api_version": API_VERSION,
                "schema": SCHEMA_VERSION,
                "metrics": self.router.metrics_document(),
            }
        return None

    def get_plain(self, path: str) -> Optional[str]:
        if path == "/v1/metrics":
            return self.router.metrics_text()
        return None
