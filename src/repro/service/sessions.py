"""Named exploration sessions managed by the advisor service.

A :class:`ServiceSession` adds what the service needs to a
:class:`~repro.core.session.ExplorationSession`: a user-visible name, the
table it runs on, a request tally and a lock serialising its requests.
Navigation state lives in the exploration stack; advice comes through the
exploration's ``advise_fn`` hook, which the service points at the table's
shared advice cache — an interactive advise and its :meth:`refine` are two
advises through that cache, both on the request thread.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.core.advisor import Advice, Charles, ContextLike
from repro.core.session import ExplorationSession
from repro.errors import SessionError

__all__ = ["ServiceSession"]


class ServiceSession:
    """One named, concurrent-safe exploration session over a shared table.

    Parameters
    ----------
    name:
        The service-wide unique session name.
    table_name:
        Name the backing table was registered under.
    exploration:
        The navigation stack; its advisor's engine shares the table
        runtime's cache and its ``advise_fn`` serves the shared advice
        cache.
    """

    def __init__(self, name: str, table_name: str, exploration: ExplorationSession):
        self.name = name
        self.table_name = table_name
        self.exploration = exploration
        self.requests = 0
        self._lock = threading.RLock()

    @property
    def advisor(self) -> Charles:
        return self.exploration.advisor

    def _started(self) -> ExplorationSession:
        """The exploration, once an advise has given it a context."""
        if not self.exploration.started:
            raise SessionError(
                f"session {self.name!r} has no context yet; submit an advise first"
            )
        return self.exploration

    # -- the Figure 1 loop --------------------------------------------------

    def advise(
        self,
        context: ContextLike = None,
        refresh: bool = False,
        mode: Optional[str] = None,
    ) -> Advice:
        """Start (or restart) the session at a context and return advice.

        With ``refresh=True`` and no ``context``, the advice of the
        *current* context is recomputed against the newest data version
        instead of restarting the exploration — the way to clear the
        stale flag after an ingest without losing the drill-down stack.

        With ``mode="interactive"`` the advice is computed on the sampled
        view (``approximate`` flag and ``error_bound`` set on the advice);
        :meth:`refine` computes the exact advice when asked.  ``None`` is
        the advisor's default mode.
        """
        with self._lock:
            self.requests += 1
            if refresh and context is None and self.exploration.started:
                return self.exploration.advise(refresh=True, mode=mode)
            return self.exploration.start(context, mode=mode)

    def refine(self) -> Advice:
        """Exact advice at the current context, replacing an approximate one."""
        with self._lock:
            self.requests += 1
            return self._started().refine()

    def drill(self, answer_index: int, segment_index: int) -> Advice:
        """Drill into one segment of one ranked answer."""
        with self._lock:
            self.requests += 1
            return self._started().drill(answer_index, segment_index)

    def back(self) -> Advice:
        """Pop one drill-down level and return the advice at the restored context."""
        with self._lock:
            self.requests += 1
            exploration = self._started()
            exploration.back()
            return exploration.advise()

    def current_advice(self) -> Optional[Advice]:
        """The advice at the current context, or ``None`` before the first advise."""
        with self._lock:
            if not self.exploration.started:
                return None
            return self.exploration.advise()

    # -- reporting ----------------------------------------------------------

    @property
    def depth(self) -> int:
        return self.exploration.depth

    @property
    def data_version(self) -> int:
        """The backing table's current data version."""
        return self.exploration.data_version

    @property
    def stale(self) -> bool:
        """Whether the current advice predates the newest data version."""
        with self._lock:
            return self.exploration.is_stale()

    def breadcrumbs(self) -> List[str]:
        with self._lock:
            return self.exploration.breadcrumbs()

    def stats(self) -> Dict[str, Any]:
        """Per-session counters: requests, staleness and engine operations."""
        with self._lock:
            return {
                "name": self.name,
                "table": self.table_name,
                "requests": self.requests,
                "depth": self.depth,
                "data_version": self.exploration.data_version,
                "stale": self.exploration.is_stale(),
                "engine_operations": self.advisor.engine.counter.snapshot(),
            }

    def describe(self) -> str:
        with self._lock:
            header = f"session {self.name!r} on table {self.table_name!r}"
            if not self.exploration.started:
                return header + " (no context yet)"
            return header + "\n" + self.exploration.describe()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServiceSession(name={self.name!r}, table={self.table_name!r}, "
            f"requests={self.requests}, depth={self.depth})"
        )
