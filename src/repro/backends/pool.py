"""The shared executor pool behind partitioned parallel evaluation.

The paper's workload is *embarrassingly scannable* (Section 5.1): counts
and medians over predicates decompose into independent per-partition
scans.  :class:`ExecutorPool` is the one place that turns that
independence into concurrency — a bounded, introspectable worker pool
that callers *share*:

* the partition-aware :class:`~repro.storage.engine.QueryEngine` maps
  per-partition masks, counts and median gathers through it;
* :class:`~repro.core.hbcuts.HBCuts` evaluates the candidate INDEP pairs
  of an iteration through it (the pairs are independent by construction);
* :class:`~repro.service.AdvisorService` owns a single pool shared by
  every session and reports its statistics via ``stats()``.

Execution uses threads: NumPy releases the GIL inside the comparison and
reduction kernels that dominate partition scans, so row-range shards
genuinely run in parallel.  The surface (``map`` preserving input order)
is deliberately process-capable — a ``ProcessPoolExecutor``-backed
variant can slot in later without touching any caller.

``workers=1`` (the default) maps inline on the calling thread: the
sequential path is the one-worker special case, not a separate code path,
which is what makes the determinism guarantee trivial — the same tasks
run in the same order with the same merge, whatever the worker count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro.errors import BackendError

__all__ = ["ExecutorPool"]

T = TypeVar("T")
R = TypeVar("R")

#: Hard upper bound on workers per pool — the pool is *bounded* by design.
MAX_WORKERS = 64


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count request.

    ``None`` or ``0`` means "one worker per available core" — the cores
    this process may run on (its CPU affinity), not the host's; explicit
    values are clamped to ``[1, MAX_WORKERS]``.  Negative values are an
    error rather than silently sequential.
    """
    if workers is None or workers == 0:
        if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
            return min(len(os.sched_getaffinity(0)), MAX_WORKERS)
        return min(os.cpu_count() or 1, MAX_WORKERS)
    workers = int(workers)
    if workers < 0:
        raise BackendError(f"workers cannot be negative, got {workers}")
    return min(workers, MAX_WORKERS)


class ExecutorPool:
    """A bounded, shared, introspectable worker pool (threads for now).

    Parameters
    ----------
    workers:
        Concurrency bound.  ``1`` executes inline (sequential special
        case); ``None``/``0`` uses one worker per available core; every
        value is capped at :data:`MAX_WORKERS`.
    name:
        Cosmetic label shown in service statistics.

    The underlying executor is created lazily on the first genuinely
    parallel ``map`` and reused for the pool's lifetime; ``shutdown()``
    (or use as a context manager) releases the threads.  All bookkeeping
    is lock-protected, so a single pool may be shared by any number of
    engines and sessions.
    """

    _POOL_IDS = iter(range(1, 1 << 30))

    def __init__(self, workers: Optional[int] = 1, name: str = "pool"):
        self.name = name
        self._workers = resolve_workers(workers)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._tasks = 0
        self._parallel_batches = 0
        self._inline_batches = 0
        # Process-unique worker-thread prefix: how re-entrant maps from this
        # pool's own workers are recognised (and run inline).
        self._thread_prefix = f"charles-{name}-{next(self._POOL_IDS)}"

    @classmethod
    def requested(cls, workers: Optional[int], name: str) -> Optional["ExecutorPool"]:
        """The pool a ``workers`` option asks for, or ``None`` for none.

        The one place the ``memory`` spec and ``AdvisorService`` decide
        who starts threads: ``None`` and ``1``
        ask for no pool (shards, forced or not, are scanned on the calling
        thread); anything else gets :func:`resolve_workers` threads.
        """
        if workers is None or workers == 1:
            return None
        return cls(workers, name=name)

    @property
    def workers(self) -> int:
        """The pool's concurrency bound."""
        return self._workers

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving input order.

        Batches of at most one item — and every batch on a one-worker
        pool — run inline on the calling thread; anything else fans out
        across the pool's threads.  Exceptions propagate exactly as the
        inline path would raise them (first failing item wins).

        **Nested maps run inline.**  A task already executing on one of
        this pool's workers (e.g. a partitioned count issued from inside a
        parallel INDEP evaluation) must not wait on the same bounded pool
        — with every worker blocked on queued sub-tasks nothing would ever
        run.  Detecting the re-entry and degrading to the inline path
        keeps the pool deadlock-free at any nesting depth, with identical
        results.
        """
        items = list(items)
        if self._workers <= 1 or len(items) <= 1 or self._in_worker():
            with self._lock:
                self._inline_batches += 1
                self._tasks += len(items)
            return [fn(item) for item in items]
        with self._lock:
            self._parallel_batches += 1
            self._tasks += len(items)
            executor = self._executor
            if executor is None:
                executor = self._executor = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix=self._thread_prefix,
                )
        return list(executor.map(fn, items))

    def _in_worker(self) -> bool:
        """Whether the calling thread is one of this pool's own workers.

        Executor threads are named ``<prefix>_<n>``; matching up to and
        including the separator keeps pool ids that are string prefixes of
        each other (1 vs 10) from claiming each other's workers.
        """
        return threading.current_thread().name.startswith(self._thread_prefix + "_")

    def stats(self) -> Dict[str, Any]:
        """Pool statistics for service reports."""
        with self._lock:
            return {
                "name": self.name,
                "workers": self._workers,
                "tasks": self._tasks,
                "parallel_batches": self._parallel_batches,
                "inline_batches": self._inline_batches,
                "started": self._executor is not None,
            }

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker threads (the pool stays usable: a later
        ``map`` starts a fresh executor)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "ExecutorPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        # Deliberately free of object identity: reprs of configuration
        # objects feed cache keys in the service layer.
        return f"ExecutorPool(name={self.name!r}, workers={self._workers})"
