"""Cross-session request batching for the advisor service.

The paper (Section 5.1) notes that Charles issues only medians and counts
over predicates; HB-cuts in particular spends most of its time computing
counts for the cells of candidate products.  When several users explore
the same table concurrently, those counts can be grouped into *single
multi-query engine passes*:

* :class:`BatchCoordinator` — a small leader/follower coalescer.  The
  first thread to submit in a round becomes the leader, waits a short
  window for concurrent submitters, then executes every pending request in
  one :meth:`~repro.backends.base.ExecutionBackend.count_batch` call
  (duplicate signatures across users are evaluated once).
* :class:`BatchedEngine` — the per-session engine handed to each
  :class:`~repro.core.advisor.Charles` instance.  It shares the table's
  :class:`~repro.storage.cache.ResultCache` and routes its batched count
  passes through the coordinator, so HB-cuts runs from different sessions
  coalesce transparently.

Correctness does not depend on the coordinator: every path degrades to the
engine's own (deterministic) evaluation, and a follower that times out
simply computes its batch directly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.base import BackendWrapper, ExecutionBackend
from repro.sdl.formatter import query_signature
from repro.sdl.query import SDLQuery

__all__ = ["BatchCoordinator", "BatchedEngine"]


@dataclass
class BatchStats:
    """Tally of the coordinator's coalescing behaviour.

    Attributes
    ----------
    passes:
        Multi-query engine passes executed.
    requests:
        Individual :meth:`BatchCoordinator.counts` submissions served.
    queries:
        Total queries submitted across all requests.
    unique_queries:
        Queries actually evaluated after signature-level deduplication;
        ``queries - unique_queries`` is the work the batching removed.
    fallbacks:
        Requests answered directly after a wait timeout (should stay 0).
    """

    passes: int = 0
    requests: int = 0
    queries: int = 0
    unique_queries: int = 0
    fallbacks: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "passes": self.passes,
            "requests": self.requests,
            "queries": self.queries,
            "unique_queries": self.unique_queries,
            "fallbacks": self.fallbacks,
        }


class _BatchRequest:
    __slots__ = ("queries", "results", "done")

    def __init__(self, queries: Sequence[SDLQuery]):
        self.queries = queries
        self.results: Optional[Tuple[int, ...]] = None
        self.done = threading.Event()


class BatchCoordinator:
    """Coalesces concurrent count batches into single engine passes.

    Parameters
    ----------
    engine:
        The engine that executes the merged passes (the table runtime's
        primary engine, wired to the shared cache).
    window_seconds:
        How long a leader waits for concurrent submitters before flushing.
        ``0`` flushes immediately, which still merges requests that queued
        while a previous flush was executing.
    timeout_seconds:
        Upper bound a follower waits for its leader before computing its
        own batch directly (a liveness guard, not an expected path).
    """

    def __init__(
        self,
        engine: ExecutionBackend,
        window_seconds: float = 0.002,
        timeout_seconds: float = 5.0,
    ):
        self.engine = engine
        self.window_seconds = max(0.0, float(window_seconds))
        self.timeout_seconds = float(timeout_seconds)
        self.stats = BatchStats()
        self._lock = threading.Lock()
        self._pending: List[_BatchRequest] = []
        self._in_flight = 0

    def counts(self, queries: Sequence[SDLQuery]) -> Tuple[int, ...]:
        """Cardinalities of the queries, possibly merged with other callers."""
        if not queries:
            return ()
        request = _BatchRequest(list(queries))
        with self._lock:
            self._in_flight += 1
            self._pending.append(request)
            leader = len(self._pending) == 1
            # Waiting for followers only makes sense when another call is
            # actually in flight; a lone caller flushes immediately.
            wait = self.window_seconds if self._in_flight > 1 else 0.0
            self.stats.requests += 1
            self.stats.queries += len(request.queries)
        try:
            if leader:
                if wait:
                    time.sleep(wait)
                with self._lock:
                    batch = self._pending
                    self._pending = []
                self._execute(batch)
            else:
                request.done.wait(self.timeout_seconds)
                if not request.done.is_set():  # pragma: no cover - liveness guard
                    with self._lock:
                        if request in self._pending:
                            self._pending.remove(request)
                        self.stats.fallbacks += 1
                    self._execute([request])
        finally:
            with self._lock:
                self._in_flight -= 1
        assert request.results is not None
        return request.results

    def _execute(self, batch: List[_BatchRequest]) -> None:
        """One engine pass answering every request of the batch."""
        unique: Dict[str, SDLQuery] = {}
        for request in batch:
            for query in request.queries:
                unique.setdefault(query_signature(query), query)
        ordered = list(unique.items())
        counts = self.engine.count_batch([query for _, query in ordered])
        by_signature = {signature: count for (signature, _), count in zip(ordered, counts)}
        with self._lock:
            self.stats.passes += 1
            self.stats.unique_queries += len(ordered)
        for request in batch:
            request.results = tuple(
                by_signature[query_signature(query)] for query in request.queries
            )
            request.done.set()


class BatchedEngine(BackendWrapper):
    """A per-session backend that coalesces batch passes across sessions.

    A :class:`~repro.backends.base.BackendWrapper`: it behaves exactly
    like the backend it wraps (typically one sharing the table's result
    cache, so single counts and medians reuse other sessions' work), but
    its :meth:`count_batch` is routed through the table's
    :class:`BatchCoordinator`, merging concurrent HB-cuts INDEP passes
    into single multi-query evaluations.
    """

    def __init__(
        self,
        inner: ExecutionBackend,
        coordinator: Optional[BatchCoordinator] = None,
    ):
        super().__init__(inner)
        self._coordinator = coordinator

    def count_batch(self, queries: Sequence[SDLQuery]) -> Tuple[int, ...]:
        if self._coordinator is None or not queries:
            return self.inner.count_batch(queries)
        # Logical accounting stays with the session; the physical pass runs
        # on the coordinator's engine (sharing the same cache).
        self.counter.add(batch_calls=1, count_calls=len(queries))
        return self._coordinator.counts(queries)

    def sibling(self) -> "BatchedEngine":
        """A batched engine over a sibling of the wrapped backend."""
        return BatchedEngine(self.inner.sibling(), coordinator=self._coordinator)
