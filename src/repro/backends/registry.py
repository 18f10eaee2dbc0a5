"""Backend specs: textual specs → :class:`ExecutionBackend` instances.

A backend *spec* is a compact URI-like string::

    memory                      the in-memory columnar QueryEngine; it picks
                                its own access path per query
    memory?sample=0.1&seed=7    the approximate view (ApproxEngine) over a 10%
                                uniform sample: scaled counts with an error bound
                                (0 < sample ≤ 1; sample=1 is the exact engine)
    memory?cache=512            engine options as query parameters (cache=0:
                                no result cache)
    memory?index=zonemap        force exactly these index features
                                (index=all, index=none: every one, the plain scan)
    memory?partitions=4         force 4 shards, with zone maps, each
                                scanned on the calling thread
    sqlite                      load the table into an in-memory SQLite db
    sqlite?sample=0.25          … sampled: the rows read out into memory
    sqlite:///path/to/db.db#t   open table ``t`` of an existing database; given
                                a source table, load it there, or reuse a
                                stored ``t`` of the same columns and row count

Grammar: ``scheme[://path][?key=value&...][#fragment]``.  The path after
``://`` is used verbatim as a filesystem path — ``sqlite://x.db`` is
relative to the working directory, ``sqlite:///var/data/x.db`` is
absolute (note: *not* SQLAlchemy's three-slash-relative rule).  The
scheme picks the factory (``memory`` or ``sqlite``); path, fragment and
parameters are passed through, and a parameter the scheme does not read
is an error.  :func:`open_backend` is the single entry
point used by :class:`repro.core.advisor.Charles`,
:meth:`repro.service.AdvisorService.register_table` and the CLI's
``--backend`` flag.  Any other engine is passed to them as an
:class:`ExecutionBackend` instance, which :func:`open_backend` returns
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional
from urllib.parse import parse_qsl, unquote

from repro.backends.base import ExecutionBackend
from repro.errors import BackendError, StorageError
from repro.storage.cache import ResultCache
from repro.storage.engine import QueryEngine, resolve_index_features
from repro.storage.table import Table

__all__ = ["open_backend"]


@dataclass(frozen=True)
class BackendSpec:
    """A parsed backend spec (see the module docstring for the grammar)."""

    scheme: str
    path: str = ""
    params: Dict[str, str] = field(default_factory=dict)
    fragment: str = ""

    @classmethod
    def parse(cls, spec: str) -> "BackendSpec":
        text = spec.strip()
        if not text:
            raise BackendError("empty backend spec")
        text, _, fragment = text.partition("#")
        text, _, query = text.partition("?")
        scheme, separator, path = text.partition("://")
        if not separator:
            scheme, path = text, ""
        if not scheme:
            raise BackendError(f"backend spec {spec!r} names no scheme")
        params = dict(parse_qsl(query, keep_blank_values=True))
        return cls(
            scheme=scheme.lower(),
            path=unquote(path),
            params=params,
            fragment=unquote(fragment),
        )


def _spec_number(
    spec: BackendSpec, key: str, kind: type = int, default: Optional[Any] = None
) -> Optional[Any]:
    raw = spec.params.get(key)
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise BackendError(f"backend parameter {key}={raw!r} is not {what}")


def _cache_size(spec: BackendSpec) -> int:
    """``cache=n``: result-cache entries, 0 turning the cache off."""
    size = _spec_number(spec, "cache", default=256)
    if size < 0:
        raise BackendError(f"backend parameter cache={size} cannot be negative")
    return size


def _sampling(spec: BackendSpec) -> Optional[float]:
    """``sample=f``: the sampled fraction, ``None`` for the exact engine."""
    fraction = _spec_number(spec, "sample", float)
    if fraction is None or fraction == 1.0:
        return None
    if not 0.0 < fraction < 1.0:  # NaN fails the comparison too
        raise BackendError(
            f"backend parameter sample={spec.params['sample']!r} must lie in (0, 1]"
        )
    return fraction


def _memory_factory(
    spec: BackendSpec,
    table: Optional[Table] = None,
    cache: Optional[ResultCache] = None,
    cache_aggregates: bool = False,
) -> ExecutionBackend:
    if table is None:
        raise BackendError("the 'memory' backend requires a source table")
    partitions = _spec_number(spec, "partitions")
    if partitions is not None and partitions < 1:
        raise BackendError(f"partitions must be at least 1, got {partitions}")
    cache_size = _cache_size(spec)
    index = spec.params.get("index")  # absent: nothing forced, the engine picks
    try:  # eagerly, so a typo in ``index=`` fails here, as a BackendError
        features = None if index is None else resolve_index_features(index)
    except StorageError as exc:
        raise BackendError(exc.message) from exc
    return QueryEngine(
        table,
        cache_size=cache_size,
        use_index=features,
        cache=cache,
        cache_aggregates=cache_aggregates,
        partitions=partitions,
    )


def _sqlite_factory(
    spec: BackendSpec,
    table: Optional[Table] = None,
    cache: Optional[ResultCache] = None,
    cache_aggregates: bool = True,
) -> ExecutionBackend:
    from repro.backends.sqlite import SQLiteBackend

    database = spec.path or ":memory:"
    options = {
        "cache": cache,
        "cache_aggregates": cache_aggregates,
        "cache_size": _cache_size(spec),
    }
    if table is not None:
        return SQLiteBackend.from_table(
            table,
            database=database,
            table_name=spec.fragment or None,
            **options,
        )
    if not spec.path:
        raise BackendError(
            "the 'sqlite' backend needs a source table or a database "
            "path (sqlite:///path.db#table)"
        )
    return SQLiteBackend(database, table_name=spec.fragment or None, **options)


#: scheme → (factory, the spec parameters it reads).  Any other parameter
#: is a typo, rejected rather than silently run as the plain engine.
_SCHEMES = {
    "memory": (_memory_factory, ("cache", "index", "partitions", "sample", "seed")),
    "sqlite": (_sqlite_factory, ("cache", "sample", "seed")),
}


def open_backend(
    spec: Any,
    table: Optional[Table] = None,
    **context: Any,
) -> ExecutionBackend:
    """Open a backend from a spec string (or pass an instance through).

    Parameters
    ----------
    spec:
        A spec string such as ``"memory"``, ``"memory?sample=0.1"`` or
        ``"sqlite:///path.db#table"`` — or an already-built
        :class:`ExecutionBackend`, returned unchanged (so every consumer
        can accept either form).
    table:
        Source table for backends without external storage.
    context:
        Construction context forwarded to the factory: ``cache`` and
        ``cache_aggregates`` from callers sharing a result cache.
        Everything a spec can say (cache size, shards, sampling) is said
        in the spec.
    """
    if not isinstance(spec, str):
        if isinstance(spec, ExecutionBackend):
            return spec
        raise BackendError(
            f"cannot open a backend from {type(spec).__name__!r}; "
            "pass a spec string or an ExecutionBackend instance"
        )
    parsed = BackendSpec.parse(spec)
    scheme = _SCHEMES.get(parsed.scheme)
    if scheme is None:
        raise BackendError(
            f"unknown backend scheme {parsed.scheme!r}; expected 'memory' or 'sqlite'"
        )
    factory, accepted = scheme
    unknown = ", ".join(sorted(set(parsed.params) - set(accepted)))
    if unknown:
        raise BackendError(
            f"unknown {parsed.scheme!r} backend parameter(s) {unknown}; "
            f"accepted: {', '.join(accepted)}"
        )
    fraction = _sampling(parsed)  # checked before the backend is built
    backend = factory(parsed, table=table, **context)
    if fraction is None:
        return backend
    from repro.backends.approx import ApproxEngine

    return ApproxEngine(backend, fraction=fraction, seed=_spec_number(parsed, "seed"))
