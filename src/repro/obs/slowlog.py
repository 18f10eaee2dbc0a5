"""A bounded log of the worst (slowest) requests per operation.

Every service request is offered to the log; each operation keeps only
its :data:`DEFAULT_PER_OP` slowest entries (a min-heap on duration, so a fast
request on a full heap is rejected with one comparison).  When the
request was traced, the entry carries the full span tree — the
``slow_ops`` wire operation then answers "where did the worst advise
go?" with the complete router → node → engine breakdown; untraced
entries still record operation, duration, session and request id.

Logs from several nodes merge at the router by simply re-ranking the
union (:meth:`SlowOpLog.merge_documents`), the same fan-out-and-merge
shape the metrics registry uses.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SlowOpLog"]

#: Number of worst entries kept per operation.
DEFAULT_PER_OP = 8


class SlowOpLog:
    """Per-operation ring of the N slowest requests.

    Thread-safe; the heaps are guarded by one lock and an offer on a
    full heap that does not displace anything is one comparison.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # op -> min-heap of (seconds, tick, entry); tick breaks ties so
        # heapq never compares the entry dicts themselves.
        self._heaps: Dict[str, List[Tuple[float, int, Dict[str, Any]]]] = {}
        self._ticks = itertools.count()

    def record(
        self,
        op: str,
        seconds: float,
        session: Optional[str] = None,
        request_id: Optional[str] = None,
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Offer one finished request; kept only if among the op's worst."""
        entry: Dict[str, Any] = {
            "op": op,
            "seconds": float(seconds),
            "recorded_at": time.time(),
        }
        if session is not None:
            entry["session"] = session
        if request_id is not None:
            entry["request_id"] = request_id
        if trace is not None:
            entry["trace"] = trace
        with self._lock:
            heap = self._heaps.setdefault(op, [])
            item = (float(seconds), next(self._ticks), entry)
            if len(heap) < DEFAULT_PER_OP:
                heapq.heappush(heap, item)
            elif heap[0][0] < item[0]:
                heapq.heapreplace(heap, item)

    def document(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The log as a JSON-safe document, worst request first.

        ``limit`` caps the number of entries returned *per operation*
        (defaults to everything kept).
        """
        with self._lock:
            heaps = {op: list(heap) for op, heap in self._heaps.items()}
        per_op = DEFAULT_PER_OP if limit is None else max(1, int(limit))
        ops: Dict[str, List[Dict[str, Any]]] = {}
        for op in sorted(heaps):
            ranked = sorted(heaps[op], key=lambda item: item[0], reverse=True)
            ops[op] = [dict(entry) for _, _, entry in ranked[:per_op]]
        return {"per_op": per_op, "ops": ops}

    def clear(self) -> None:
        with self._lock:
            self._heaps.clear()

    @staticmethod
    def merge_documents(
        documents: List[Dict[str, Any]], limit: Optional[int] = None
    ) -> Dict[str, Any]:
        """Merge per-node slow-op documents by re-ranking the union."""
        per_op = 0
        pooled: Dict[str, List[Dict[str, Any]]] = {}
        for document in documents:
            per_op = max(per_op, int(document.get("per_op", 0)))
            for op, entries in document.get("ops", {}).items():
                pooled.setdefault(op, []).extend(entries)
        if limit is not None:
            per_op = max(1, int(limit))
        elif per_op == 0:
            per_op = DEFAULT_PER_OP
        ops: Dict[str, List[Dict[str, Any]]] = {}
        for op in sorted(pooled):
            ranked = sorted(
                pooled[op], key=lambda entry: float(entry.get("seconds", 0.0)), reverse=True
            )
            ops[op] = [dict(entry) for entry in ranked[:per_op]]
        return {"per_op": per_op, "ops": ops}
