"""The ``ExecutionBackend`` protocol: the advisor ↔ storage contract.

The paper positions Charles as "a front-end for SQL systems" (Section 1)
and observes in Section 5.1 that the advisor needs only **two kinds of
back-end operations** — counts over predicates and medians.  This module
makes that observation a formal seam: :class:`ExecutionBackend` is the
small protocol every execution engine implements, and everything above
the storage layer (CUT/COMPOSE/product, HB-cuts, metrics, the `Charles`
facade, the service layer) is written against it rather than against the
concrete in-memory :class:`~repro.storage.engine.QueryEngine`.

Conforming implementations shipped with the repo:

* :class:`~repro.storage.engine.QueryEngine` — the in-memory columnar
  engine (spec ``"memory"``);
* :class:`~repro.backends.approx.ApproxEngine` — a wrapper that answers
  statistics from a uniform sample of any backend, with an error bound
  (``"memory?sample=f"``, ``advise(mode="interactive")``);
* :class:`~repro.backends.sqlite.SQLiteBackend` — executes segments by
  rendering SDL through the :mod:`repro.storage.sql` glue against a
  ``sqlite3`` database (spec ``"sqlite"`` / ``"sqlite:///path.db#table"``);
* :class:`~repro.service.batching.BatchedEngine` — a wrapper that routes
  batched count passes through a cross-session coordinator.

Backends are obtained through :func:`repro.backends.open_backend`, which
resolves a textual spec (``"memory"``, ``"sqlite"``) or passes an instance
through.

Optional capabilities
---------------------
Two members are deliberately *not* part of the protocol because they
expose in-memory representations: ``evaluate(query) -> mask`` and the
``table`` attribute.  Callers that need them — the partition check, the
histogram renderer — must check for them (``getattr(backend, "table",
None)``) and degrade gracefully.  A third, ``dtype_of(attribute)``, is
what :func:`repro.storage.statistics.profile_backend` (``Charles.profile``)
reads besides the protocol's aggregates; the in-memory engine and
:class:`~repro.backends.sqlite.SQLiteBackend` both have it.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.sdl.query import SDLQuery

__all__ = ["ExecutionBackend", "BackendWrapper"]


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the advisor requires from an execution engine.

    The surface is intentionally tiny (the paper's two operations, plus
    the schema introspection and batching hooks the reproduction grew):

    ======================  ====================================================
    member                  meaning
    ======================  ====================================================
    ``name``                the relation's name (used in reports and SQL)
    ``num_rows``            ``|T|`` — cardinality of the relation
    ``column_names``        attributes of the relation, in schema order
    ``is_numeric(a)``       whether ``a`` supports arithmetic medians
    ``count(q)``            ``|R(Q)|`` — rows selected by an SDL query
    ``median(a, q)``        arithmetic median of ``a`` over ``R(Q)``
    ``minmax(a, q)``        minimum and maximum of ``a`` over ``R(Q)``
    ``value_frequencies``   value → count histogram of ``a`` over ``R(Q)``
    ``count_batch(qs)``     many counts in one engine pass (deduplicated)
    ``counter``             an ``OperationCounter`` tallying logical work
    ``stats()``             backend-specific statistics snapshot (dict)
    ``data_version``        monotonic version of the data answers reflect
    ``ingest(rows)``        append a batch of row mappings (new version)
    ``delete_where(q)``     delete the rows a query selects (count removed)
    ======================  ====================================================

    The three live-data members make every backend *mutation-aware*:
    ``ingest``/``delete_where`` bump the monotonic ``data_version`` and
    surgically evict superseded cache entries, and callers (sessions, the
    service layer, remote clients) compare versions to detect stale
    advice.  The approximate view
    (:class:`~repro.backends.approx.ApproxEngine`) mutates the backend it
    decorates and resamples on its next call.
    """

    @property
    def name(self) -> str: ...

    @property
    def num_rows(self) -> int: ...

    @property
    def column_names(self) -> List[str]: ...

    @property
    def counter(self) -> Any: ...

    def is_numeric(self, attribute: str) -> bool: ...

    def count(self, query: SDLQuery) -> int: ...

    def median(self, attribute: str, query: Optional[SDLQuery] = None) -> Any: ...

    def minmax(
        self, attribute: str, query: Optional[SDLQuery] = None
    ) -> Tuple[Any, Any]: ...

    def value_frequencies(
        self, attribute: str, query: Optional[SDLQuery] = None
    ) -> Dict[Any, int]: ...

    def count_batch(self, queries: Sequence[SDLQuery]) -> Tuple[int, ...]: ...

    def stats(self) -> Dict[str, Any]: ...

    @property
    def data_version(self) -> int: ...

    def ingest(self, rows: Iterable[Mapping[str, Any]]) -> int: ...

    def delete_where(self, query: SDLQuery) -> int: ...


class BackendWrapper:
    """Base class for backends that decorate another backend.

    :class:`~repro.backends.approx.ApproxEngine` and
    :class:`~repro.service.batching.BatchedEngine` wrap **any**
    :class:`ExecutionBackend`, overriding only the operations they
    change.  Every protocol member delegates to the wrapped backend;
    optional capabilities (``table``, ``evaluate``, ``cache`` …) pass
    through via ``__getattr__`` so a wrapper is exactly as capable as
    what it wraps.
    """

    def __init__(self, inner: ExecutionBackend):
        self._inner = inner

    @property
    def inner(self) -> ExecutionBackend:
        """The wrapped backend (one layer down)."""
        return self._inner

    def unwrap(self) -> ExecutionBackend:
        """The innermost backend below every wrapper layer."""
        backend = self._inner
        while isinstance(backend, BackendWrapper):
            backend = backend.inner
        return backend

    # -- protocol delegation --------------------------------------------------

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def num_rows(self) -> int:
        return self._inner.num_rows

    @property
    def column_names(self) -> List[str]:
        return self._inner.column_names

    @property
    def counter(self) -> Any:
        return self._inner.counter

    def is_numeric(self, attribute: str) -> bool:
        return self._inner.is_numeric(attribute)

    def count(self, query: SDLQuery) -> int:
        return self._inner.count(query)

    def median(self, attribute: str, query: Optional[SDLQuery] = None) -> Any:
        return self._inner.median(attribute, query)

    def minmax(
        self, attribute: str, query: Optional[SDLQuery] = None
    ) -> Tuple[Any, Any]:
        return self._inner.minmax(attribute, query)

    def value_frequencies(
        self, attribute: str, query: Optional[SDLQuery] = None
    ) -> Dict[Any, int]:
        return self._inner.value_frequencies(attribute, query)

    def count_batch(self, queries: Sequence[SDLQuery]) -> Tuple[int, ...]:
        return self._inner.count_batch(queries)

    def stats(self) -> Dict[str, Any]:
        return self._inner.stats()

    @property
    def data_version(self) -> int:
        return self._inner.data_version

    def ingest(self, rows: Iterable[Mapping[str, Any]]) -> int:
        return self._inner.ingest(rows)

    def delete_where(self, query: SDLQuery) -> int:
        return self._inner.delete_where(query)

    # -- optional capabilities pass through ------------------------------------

    def __getattr__(self, item: str) -> Any:
        # Only called when normal lookup fails: optional capabilities such
        # as ``table``, ``evaluate``, ``cache`` delegate to
        # the wrapped backend.
        if item == "_inner":  # guard against recursion before __init__ ran
            raise AttributeError(item)
        return getattr(self._inner, item)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self._inner!r})"
