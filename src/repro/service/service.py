"""The advisor service: many sessions, shared caching, batched back-ends.

:class:`AdvisorService` turns the single-shot :class:`~repro.core.advisor.Charles`
facade into a multi-user service, following the request → parse → plan →
execute pipeline idiom of service layers.  Per registered table it keeps a
*table runtime*:

* one shared :class:`~repro.storage.cache.ResultCache` holding selection
  masks and count/median aggregates, keyed by
  :attr:`~repro.sdl.query.SDLQuery.key` — the paper's observation
  that only two back-end operations exist makes this cache cover
  essentially all repeated work;
* one advice-level cache, so identical context queries from different
  users are answered without re-running HB-cuts at all;
* one :class:`~repro.service.batching.BatchCoordinator` that merges
  concurrent sessions' ``count_batch`` passes into single multi-query
  engine evaluations.

Each table is one shard unless its backend spec forces more
(:mod:`repro.storage.partition`); shards, index features and sampling are
the table's backend spec.

Sessions are named and concurrent: each owns a
:class:`~repro.service.batching.BatchedEngine` (private operation
counters, shared cache) and a thin
:class:`~repro.core.session.ExplorationSession` navigation stack.  A
request runs on the thread that submitted it — ``refine`` too, which is
one exact advise through the advice cache — and the engine scans every
shard on that thread, so a service starts no thread of its own.

Entry point: :meth:`AdvisorService.submit` for one request; a whole
multi-user workload is replayed against the public session methods by
:func:`repro.workloads.concurrent.serve` (the CLI's ``serve --simulate``).
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.api.protocol import OPERATIONS, PARAM_KINDS, Request, Response
from repro.backends.registry import open_backend
from repro.core.advisor import Advice, Charles, ContextLike
from repro.core.hbcuts import HBCutsConfig
from repro.core.session import ExplorationSession
from repro.errors import (
    AdvisorError,
    CharlesError,
    ProtocolError,
    SessionError,
    UnknownOperationError,
)
from repro.obs import MetricsRegistry, SlowOpLog, start_trace
from repro.sdl.query import SDLQuery
from repro.service.batching import BatchCoordinator, BatchedEngine
from repro.service.sessions import ServiceSession
from repro.storage.cache import CacheStats, ResultCache
from repro.storage.expression import bind
from repro.storage.table import Table

__all__ = ["AdvisorService"]

#: Where Linux reports a process's memory, in pages (second field: resident).
_STATM = "/proc/self/statm"
#: Where Linux reports a process's status (``Threads:`` line: its thread count).
_STATUS = "/proc/self/status"

#: The :class:`CacheStats` fields that are levels (exported as gauges);
#: every other field is a monotonic tally (exported as a counter).
_CACHE_LEVELS = ("capacity", "entries", "approx_bytes")


def _resident_bytes() -> int:
    """This process's resident set size."""
    with open(_STATM) as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _thread_count() -> int:
    """This process's live threads, as the kernel counts them."""
    with open(_STATUS) as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class _TableRuntime:
    """Shared per-table machinery: caches, primary backend, coordinator.

    The primary backend is opened through the registry from a spec such as
    ``"memory"`` or ``"sqlite"`` and wired to the table's shared
    :class:`~repro.storage.cache.ResultCache` with aggregate caching on;
    per-session backends are *siblings* of it (same data, same shared
    cache, private operation counters) wrapped in a
    :class:`~repro.service.batching.BatchedEngine` that routes batched
    passes through the table's coordinator.
    """

    def __init__(
        self,
        name: str,
        table: Table,
        cache_capacity: int,
        advice_capacity: int,
        batch_window: float,
        backend_spec: str = "memory",
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.name = name
        self.backend_spec = backend_spec
        self.schema = table.schema()
        self.cache = ResultCache(capacity=cache_capacity, name=f"results:{name}")
        self.advice_cache = ResultCache(capacity=advice_capacity, name=f"advice:{name}")
        self._backend = open_backend(
            backend_spec, table, cache=self.cache, cache_aggregates=True
        )
        self.engine = BatchedEngine(self._backend)
        self.coordinator = BatchCoordinator(self.engine, window_seconds=batch_window)
        if metrics is not None:
            self._register_metrics(metrics)

    def _register_metrics(self, metrics: MetricsRegistry) -> None:
        """Export this runtime's live stats as registry views.

        Views read the structures that already own the numbers (cache
        stats, the primary engine's :class:`OperationCounter`), so there
        is no double bookkeeping; the engine additionally gets a metrics
        *sink* — reached through whatever wrapper stack the backend spec
        built — feeding per-operation latency histograms.
        """
        for kind, cache in (("results", self.cache), ("advice", self.advice_cache)):
            labels = {"table": self.name, "cache": kind}
            for stat in dataclasses.fields(CacheStats):
                read = lambda c=cache, n=stat.name: getattr(c.stats(), n)
                if stat.name in _CACHE_LEVELS:
                    metrics.gauge(
                        f"cache_{stat.name}",
                        f"Result-cache {stat.name.replace('_', ' ')}.",
                        labels=labels,
                        fn=read,
                    )
                else:
                    metrics.counter(
                        f"cache_{stat.name}_total",
                        f"Result-cache {stat.name} since service start.",
                        labels=labels,
                        fn=read,
                    )
        for tally in self.engine.counter._FIELDS:
            metrics.counter(
                f"engine_{tally}_total",
                "Primary-engine operation tally.",
                labels={"table": self.name},
                fn=lambda t=tally: getattr(self.engine.counter, t),
            )
        histograms = {
            op: metrics.histogram(
                "engine_op_seconds",
                "Engine aggregate operation latency in seconds.",
                labels={"table": self.name, "op": op},
            )
            for op in ("count", "median")
        }

        def sink(op: str, seconds: float) -> None:
            histogram = histograms.get(op)
            if histogram is not None:
                histogram.observe(seconds)

        self._backend.set_metrics_sink(sink)

    def session_engine(self) -> BatchedEngine:
        """A fresh per-session engine wired to the shared cache and coordinator:
        a sibling of the primary backend, with private counters."""
        return BatchedEngine(self._backend.sibling(), coordinator=self.coordinator)

    @property
    def data_version(self) -> int:
        """The backend's monotonic data version."""
        return self._backend.data_version

    def stats(self) -> Dict[str, Any]:
        return {
            "rows": self._backend.num_rows,
            "data_version": self.data_version,
            "backend": self._backend.stats(),
            "result_cache": self.cache.stats().snapshot(),
            "advice_cache": self.advice_cache.stats().snapshot(),
            "batching": self.coordinator.stats.snapshot(),
            "primary_engine": self.engine.counter.snapshot(),
        }


class AdvisorService:
    """A pool of named exploration sessions over shared tables.

    Parameters
    ----------
    tables:
        Table(s) to register up front: a single :class:`Table`, an iterable
        of tables (registered under their own names), or a name → table
        mapping.  More can be added later with :meth:`register_table`.
    cache_capacity:
        Entries of the shared per-table mask/aggregate cache (``0``: no
        cache; a negative size is an :class:`~repro.errors.AdvisorError`).
    advice_capacity:
        Entries of the per-table advice cache (whole ranked answers),
        checked alike.
    batch_window:
        Seconds a batch leader waits for concurrent sessions before
        flushing a merged engine pass (0 disables the wait, not batching).
    config:
        Base HB-cuts parameters for new sessions.
    max_answers:
        Default number of ranked answers per advise (checked alike).
    backend:
        Default backend spec for registered tables (resolved through
        :func:`repro.backends.open_backend`); ``register_table`` can
        override it per table.
    """

    def __init__(
        self,
        tables: Union[None, Table, Iterable[Table], Mapping[str, Table]] = None,
        cache_capacity: int = 4096,
        advice_capacity: int = 256,
        batch_window: float = 0.002,
        config: Optional[HBCutsConfig] = None,
        max_answers: int = 10,
        backend: str = "memory",
    ):
        self._tables: Dict[str, _TableRuntime] = {}
        self._sessions: Dict[str, ServiceSession] = {}
        self._lock = threading.RLock()
        self._cache_capacity = int(cache_capacity)
        self._advice_capacity = int(advice_capacity)
        self._max_answers = int(max_answers)
        for what, size in (
            ("cache_capacity", self._cache_capacity),
            ("advice_capacity", self._advice_capacity),
            ("max_answers", self._max_answers),
        ):
            if size < 0:
                raise AdvisorError(f"{what} cannot be negative, got {size}")
        self._batch_window = float(batch_window)
        self._config = config or HBCutsConfig()
        self._backend_spec = str(backend)
        self._requests = 0
        # Observability: one registry and one slow-op log per service.
        # Service-level numbers are *views* over state the service already
        # keeps (unlocked reads of a tally are fine for a scrape).
        self.metrics = MetricsRegistry()
        self.slow_ops_log = SlowOpLog()
        self.metrics.counter(
            "requests_total",
            "Requests accepted by the advisor service.",
            fn=lambda: self._requests,
        )
        self.metrics.gauge(
            "sessions_open",
            "Currently open exploration sessions.",
            fn=lambda: len(self._sessions),
        )
        self.metrics.gauge(
            "tables_registered",
            "Tables registered with the service.",
            fn=lambda: len(self._tables),
        )
        if os.path.exists(_STATM):
            self.metrics.gauge(
                "process_resident_bytes",
                "Resident set size of the serving process.",
                fn=_resident_bytes,
            )
        if os.path.exists(_STATUS):
            self.metrics.gauge(
                "process_threads",
                "Live threads of the serving process.",
                fn=_thread_count,
            )
        if tables is None:
            return
        if isinstance(tables, Table):
            self.register_table(tables)
        elif isinstance(tables, Mapping):
            for name, table in tables.items():
                self.register_table(table, name=name)
        else:
            for table in tables:
                self.register_table(table)

    # -- tables -------------------------------------------------------------

    def register_table(
        self,
        table: Table,
        name: Optional[str] = None,
    ) -> str:
        """Register a table and build its shared runtime, on the
        service-wide backend spec; returns its name."""
        resolved = name or table.name
        with self._lock:
            if resolved in self._tables:
                raise AdvisorError(f"table {resolved!r} is already registered")
            self._tables[resolved] = _TableRuntime(
                resolved,
                table,
                cache_capacity=self._cache_capacity,
                advice_capacity=self._advice_capacity,
                batch_window=self._batch_window,
                backend_spec=self._backend_spec,
                metrics=self.metrics,
            )
        return resolved

    @property
    def table_names(self) -> List[str]:
        with self._lock:
            return sorted(self._tables)

    def data_versions(self) -> Dict[str, int]:
        """Current data version per registered table.

        The cheap staleness fingerprint the HTTP health document exposes:
        a cluster router compares these across nodes to spot a replica
        that missed an ingest.
        """
        with self._lock:
            runtimes = list(self._tables.items())
        return {name: runtime.data_version for name, runtime in runtimes}

    def _runtime(self, table: Optional[str]) -> _TableRuntime:
        with self._lock:
            if table is not None:
                runtime = self._tables.get(table)
                if runtime is None:
                    raise AdvisorError(
                        f"unknown table {table!r}; registered: {sorted(self._tables)}"
                    )
                return runtime
            if len(self._tables) == 1:
                return next(iter(self._tables.values()))
        raise AdvisorError(
            "the service has several tables registered; name one explicitly"
        )

    # -- sessions -----------------------------------------------------------

    def open_session(
        self,
        name: str,
        table: Optional[str] = None,
        context: ContextLike = None,
        max_answers: Optional[int] = None,
        replace: bool = False,
    ) -> ServiceSession:
        """Create a named session over a registered table.

        With ``context`` given, the session is started (its first advice is
        produced) before returning.
        """
        if max_answers is not None and max_answers < 0:
            raise AdvisorError(f"max_answers cannot be negative, got {max_answers}")
        runtime = self._runtime(table)
        advisor = Charles(runtime.session_engine(), config=self._config)
        exploration = ExplorationSession(
            advisor,
            max_answers=max_answers if max_answers is not None else self._max_answers,
            advise_fn=self._make_advise_fn(advisor, runtime),
            # Route the session's ad-hoc counts (describe(), breadcrumb row
            # counts) through the runtime's primary engine: shared cache,
            # aggregate caching, no private-engine bypass.
            count_fn=runtime.engine.count,
        )
        session = ServiceSession(name, runtime.name, exploration)
        with self._lock:
            if name in self._sessions and not replace:
                raise SessionError(
                    f"session {name!r} already exists; close it or pass replace=True"
                )
            previous = self._sessions.get(name)
            self._sessions[name] = session
        if context is not None:
            self._tally()
            try:
                session.advise(context)
            except Exception:
                # Atomic open: a failed initial advise must not leave a
                # half-open session behind (nor silently drop a session
                # that replace=True displaced) — the cluster router's
                # journal relies on "error reply => no state change".
                with self._lock:
                    if self._sessions.get(name) is session:
                        if previous is not None:
                            self._sessions[name] = previous
                        else:
                            self._sessions.pop(name, None)
                raise
        return session

    def session(self, name: str) -> ServiceSession:
        """Look up an open session by name."""
        with self._lock:
            session = self._sessions.get(name)
        if session is None:
            raise SessionError(f"no open session named {name!r}")
        return session

    def close_session(self, name: str) -> Dict[str, Any]:
        """Close a session; returns its final statistics."""
        with self._lock:
            session = self._sessions.pop(name, None)
        if session is None:
            raise SessionError(f"no open session named {name!r}")
        return session.stats()

    @property
    def session_names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    # -- shared advice cache ------------------------------------------------

    def _make_advise_fn(self, advisor: Charles, runtime: _TableRuntime):
        """The hook routing a session's advise through the shared advice cache.

        It closes over the session's advisor, never the session: the
        session holds the hook, so a hook holding the session would be a
        cycle and a closed session would wait for the collector.
        """
        def advise(
            context: SDLQuery, max_answers: int, mode: Optional[str] = None
        ) -> Advice:
            # Approximate advice caches under its own prefix: an
            # interactive hit must never masquerade as exact (and vice
            # versa), while the exact key format stays unchanged — a
            # refine reads and fills exactly the entry a plain advise would.
            mode = mode or advisor.default_mode
            prefix = "advice:approx:" if mode == "interactive" else "advice:"
            # Every session of a service shares its config and the entropy
            # ranking, so the context and the answer count key the advice.
            # The bound key: {1} and {1.0} differ on a STRING column only.
            key = f"{prefix}{max_answers}:{bind(context, runtime.schema).key}"
            # Tagging the entry with the data version it was computed at
            # makes the advice cache mutation-aware: after an ingest, old
            # entries miss (and are evicted) instead of serving answers
            # for data that no longer exists.
            return runtime.advice_cache.get_or_compute(
                key,
                lambda: advisor.advise(context, max_answers=max_answers, mode=mode),
                version=runtime.data_version,
            )

        return advise

    # -- request entry points -----------------------------------------------

    def advise(
        self,
        session_name: str,
        context: ContextLike = None,
        refresh: bool = False,
        mode: Optional[str] = None,
    ) -> Advice:
        """(Re)start a session at a context and return the ranked answers.

        ``refresh=True`` with no context recomputes the current context's
        advice against the newest data version (clearing the stale flag)
        without restarting the exploration.  ``mode="interactive"`` serves
        approximate advice from the sampled view (:meth:`refine` replaces
        it with the exact advice); ``None`` is the table backend's default.
        """
        self._tally()
        return self.session(session_name).advise(context, refresh=refresh, mode=mode)

    def refine(self, session_name: str) -> Advice:
        """Exact advice at a session's current context, replacing approximate.

        Computed on the request thread as one exact advise through the
        table's advice cache: a context any session already refined or
        advised exactly at the current data version is a cache hit.
        """
        self._tally()
        return self.session(session_name).refine()

    def drill(self, session_name: str, answer_index: int, segment_index: int) -> Advice:
        """Drill a session into one segment of one ranked answer."""
        self._tally()
        return self.session(session_name).drill(answer_index, segment_index)

    def back(self, session_name: str) -> Advice:
        """Pop one drill-down level of a session."""
        self._tally()
        return self.session(session_name).back()

    def count(self, context: ContextLike, table: Optional[str] = None) -> int:
        """Cardinality of a context on a table (served by the shared engine)."""
        self._tally()
        runtime = self._runtime(table)
        advisor = Charles(runtime.engine, config=self._config)
        return advisor.count(context)

    def ingest(
        self,
        rows: Optional[Sequence[Mapping[str, Any]]] = None,
        delete: ContextLike = None,
        table: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Mutate a registered table: append a batch and/or delete rows.

        Appends apply before deletions.  The mutation flows through the
        table runtime's primary backend, so every open session over the
        table observes it: their result-cache and advice-cache entries of
        superseded versions are evicted surgically, and their existing
        advice is reported ``stale`` until re-advised (``refresh=True``).

        Parameters
        ----------
        rows:
            Row mappings to append (missing keys become missing values).
        delete:
            A *constrained* context whose result set is deleted.
        table:
            Table to mutate when several are registered.

        Returns a summary: rows appended/deleted, the new ``data_version``
        and the number of cache entries invalidated by this mutation.
        """
        self._tally()
        runtime = self._runtime(table)
        engine = runtime.engine
        if rows is None and delete is None:
            raise ProtocolError(
                "ingest requires 'rows' to append, 'delete' to remove, or both"
            )
        invalidated_before = runtime.cache.stats().invalidations
        appended = 0
        if rows is not None:
            if isinstance(rows, (str, Mapping)) or not isinstance(rows, Sequence):
                raise ProtocolError(
                    "ingest 'rows' must be a sequence of row mappings, "
                    f"got {type(rows).__name__}"
                )
            for row in rows:
                if not isinstance(row, Mapping):
                    raise ProtocolError(
                        f"ingest 'rows' must hold row mappings, got {type(row).__name__}"
                    )
            appended = len(rows)
            engine.ingest(rows)
        deleted = 0
        if delete is not None:
            resolved = Charles(engine, config=self._config).resolve_context(delete)
            if not resolved.constrained_attributes:
                raise ProtocolError(
                    "ingest 'delete' must be a constrained query; refusing "
                    "to delete every row of the table"
                )
            deleted = engine.delete_where(resolved)
        version = engine.data_version
        advice_evicted = runtime.advice_cache.evict_superseded(version)
        invalidated_after = runtime.cache.stats().invalidations
        return {
            "table": runtime.name,
            "appended": appended,
            "deleted": deleted,
            "rows": engine.num_rows,
            "data_version": version,
            "cache_entries_invalidated": invalidated_after - invalidated_before,
            "advice_entries_invalidated": advice_evicted,
        }

    def _tally(self) -> None:
        with self._lock:
            self._requests += 1

    def describe_session(self, name: str) -> Dict[str, Any]:
        """Structured description of one session (the ``describe`` op).

        Bundles everything a remote session object mirrors locally:
        breadcrumbs, depth, the human-readable description and the
        per-session statistics.
        """
        session = self.session(name)
        return {
            "name": session.name,
            "table": session.table_name,
            "depth": session.depth,
            "data_version": session.data_version,
            "stale": session.stale,
            "breadcrumbs": session.breadcrumbs(),
            "text": session.describe(),
            "stats": session.stats(),
        }

    # -- the wire operations ------------------------------------------------
    # One ``_op_<name>`` handler per entry of :data:`OPERATIONS`; each runs
    # only after :meth:`_execute` validated the request against that entry.

    def _op_open_session(self, request: Request) -> Any:
        params = request.params
        replace = params.get("replace")
        session = self.open_session(
            request.session,
            table=params.get("table"),
            context=params.get("context"),
            max_answers=params.get("max_answers"),
            replace=True if replace is None else replace,
        )
        return session.name

    def _op_advise(self, request: Request) -> Any:
        params = request.params
        if params.get("current"):
            # Peek at the current context's advice without restarting the
            # exploration (RemoteSession.current_advice's path).
            return self.session(request.session).current_advice()
        return self.advise(
            request.session,
            params.get("context"),
            refresh=bool(params.get("refresh")),
            mode=params.get("mode"),
        )

    def _op_refine(self, request: Request) -> Any:
        return self.refine(request.session)

    def _op_drill(self, request: Request) -> Any:
        return self.drill(
            request.session,
            request.params.get("answer_index", 0),
            request.params.get("segment_index", 0),
        )

    def _op_back(self, request: Request) -> Any:
        return self.back(request.session)

    def _op_count(self, request: Request) -> Any:
        return self.count(
            request.params.get("context"), table=request.params.get("table")
        )

    def _op_ingest(self, request: Request) -> Any:
        return self.ingest(**request.params)

    def _op_describe(self, request: Request) -> Any:
        return self.describe_session(request.session)

    def _op_stats(self, request: Request) -> Any:
        return self.stats()

    def _op_slow_ops(self, request: Request) -> Any:
        return self.slow_ops(request.params.get("limit"))

    def _op_close_session(self, request: Request) -> Any:
        return self.close_session(request.session)

    def _execute(self, request: Request) -> Any:
        """Validate one request against the op table, then run its handler."""
        op = request.op
        entry = OPERATIONS.get(op)
        if entry is None:
            raise UnknownOperationError(
                f"unknown service operation {op!r}; known: {sorted(OPERATIONS)}"
            )
        unexpected = sorted(set(request.params) - set(entry.params))
        if unexpected:
            raise ProtocolError(
                f"operation {op!r} does not accept parameter(s) {unexpected}; "
                f"allowed: {sorted(entry.params)}"
            )
        for name, value in request.params.items():
            kind = entry.params[name]
            if value is None:
                accepted = kind != "index"
            elif isinstance(value, bool):
                accepted = kind in ("bool", "any")
            else:
                accepted = isinstance(value, PARAM_KINDS[kind])
            if not accepted:
                raise ProtocolError(
                    f"parameter {name!r} of {op!r} must be "
                    f"{PARAM_KINDS[kind][0].__name__}, got {type(value).__name__}"
                )
        if entry.route == "session" and not (
            isinstance(request.session, str) and request.session
        ):
            raise ProtocolError(f"operation {op!r} requires a non-empty session name")
        return getattr(self, f"_op_{op}")(request)

    def submit(self, request: Request) -> Response:
        """Execute one request envelope; errors are returned, not raised.

        Unknown operations, ill-typed parameters and unknown sessions all
        come back as failed responses carrying the raising class's stable
        :attr:`~repro.errors.CharlesError.code` — the same envelope the
        HTTP server puts on the wire.

        A request carrying a ``trace`` extension runs under a span root
        (``{}`` opens a fresh trace; ``{"trace_id", "parent_id"}`` joins
        a router-issued one) and the response carries the finished span
        tree.  Every request — traced or not — feeds the per-operation
        latency histogram and is offered to the slow-op log.
        """
        started = time.perf_counter()
        trace_request = request.trace
        trace_document: Optional[Dict[str, Any]] = None
        if trace_request is None:
            response = self._submit(request)
        else:
            root = start_trace(
                f"service.{request.op}",
                trace_id=trace_request.get("trace_id"),
                parent_id=trace_request.get("parent_id"),
                op=request.op,
                session=request.session,
            )
            with root:
                response = self._submit(request)
            if not response.ok and response.error is not None:
                # _submit converts raised CharlesErrors into failed
                # envelopes before the span exit sees them; reflect the
                # failure on the root so the trace shows it too.
                code = response.error_code or "error"
                root.error = f"{code}: {response.error}"
            trace_document = root.to_document()
            response.trace = trace_document
        elapsed = time.perf_counter() - started
        self.metrics.histogram(
            "request_seconds",
            "Service request latency in seconds, by operation.",
            labels={"op": request.op},
        ).observe(elapsed)
        self.slow_ops_log.record(
            request.op,
            elapsed,
            session=request.session or None,
            request_id=request.request_id,
            trace=trace_document,
        )
        return response

    def _submit(self, request: Request) -> Response:
        started = time.perf_counter()
        try:
            result = self._execute(request)
        except CharlesError as error:
            # Ship the bare prose: the code travels in error_code, and a
            # client rebuilding the exception re-appends it in str().
            return Response(
                ok=False,
                op=request.op,
                session=request.session,
                error=error.message,
                error_code=error.code,
                request_id=request.request_id,
                elapsed_seconds=time.perf_counter() - started,
            )
        return Response(
            ok=True,
            op=request.op,
            session=request.session,
            result=result,
            request_id=request.request_id,
            elapsed_seconds=time.perf_counter() - started,
        )

    # -- reporting ----------------------------------------------------------

    def slow_ops(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The slow-op log document (the ``slow_ops`` wire operation)."""
        return self.slow_ops_log.document(limit)

    def metrics_document(self) -> Dict[str, Any]:
        """The mergeable metrics document (``GET /v1/metrics.json``)."""
        return self.metrics.to_document()

    def stats(self) -> Dict[str, Any]:
        """Service-wide statistics: caches, batching, sessions, requests."""
        with self._lock:
            sessions = dict(self._sessions)
            tables = dict(self._tables)
            requests = self._requests
        return {
            "requests": requests,
            "tables": {name: runtime.stats() for name, runtime in tables.items()},
            "sessions": {name: session.stats() for name, session in sessions.items()},
        }

    def describe(self) -> str:
        """Multi-line summary of the service state."""
        stats = self.stats()
        lines = [
            f"advisor service — {len(stats['tables'])} table(s), "
            f"{len(stats['sessions'])} open session(s), "
            f"{stats['requests']} request(s) served"
        ]
        for name, table_stats in stats["tables"].items():
            results = table_stats["result_cache"]
            lines.append(
                f"  table {name!r}: {table_stats['rows']} rows, "
                f"result cache {results['entries']}/{results['capacity']} entries, "
                f"hit rate {results['hit_rate']:.1%}"
            )
        for name, session_stats in stats["sessions"].items():
            lines.append(
                f"  session {name!r}: {session_stats['requests']} request(s), "
                f"depth {session_stats['depth']}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdvisorService(tables={self.table_names}, "
            f"sessions={len(self.session_names)})"
        )
