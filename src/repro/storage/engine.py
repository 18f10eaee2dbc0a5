"""The query engine: counts, medians, frequencies over SDL queries.

The paper (Section 5.1) observes that Charles only issues two kinds of
database operations — *median calculations* and *counts over predicates* —
and that a column store fits this workload.  :class:`QueryEngine` is the
substitute back-end: it evaluates SDL queries into selection masks over a
:class:`~repro.storage.table.Table` and exposes exactly the aggregates the
advisor needs.

The policy around those aggregates — tally, bind, key, aggregate cache,
batch deduplication, latency reporting — is :class:`AggregateFrontEnd`,
written once and shared with the SQLite backend
(:class:`~repro.backends.sqlite.SQLiteBackend`); :class:`QueryEngine`
supplies only the uncached primitives over masks.

Caching lives in :class:`~repro.storage.cache.ResultCache` — a lockable,
size-bounded, statistics-reporting LRU.  By default every engine owns a
private cache; passing a shared instance via the ``cache`` parameter lets
many engines over the **same table** reuse one another's selection masks,
which is how the :mod:`repro.service` layer shares work between concurrent
user sessions.  With ``cache_aggregates=True`` the engine additionally
caches count/median/min-max *results* keyed by the query's
:attr:`~repro.sdl.query.SDLQuery.key`, so repeated aggregates skip the
mask entirely.  Keys are those of the query bound to the table
(:func:`~repro.storage.expression.bind`).

Every call is tallied in an :class:`OperationCounter`, so benchmarks can
report back-end work (number of scans, medians, counts, cache hits)
independent of wall-clock noise; cache-level statistics (hit rate,
evictions, approximate bytes) are reported by the cache itself
(:meth:`~repro.storage.cache.ResultCache.stats`) and surfaced per table by
:meth:`repro.service.AdvisorService.stats`.

Evaluation is *partitioned*: the engine always routes masks, counts and
medians through a :class:`~repro.storage.partition.PartitionedTable`.
Unforced, that is one shard, the table itself, at every size; a forced
``partitions=N`` cuts N shards for zone maps to skip.  Every shard is
evaluated inline on the calling thread, and counters, cache contents and
results are bit-for-bit identical for every shard count (masks
concatenate, counts sum, a median reduces the assembled mask).

Evaluation is *planned*: every uncached mask or count goes through
:meth:`QueryEngine._plan` (which :class:`AccessPath`, from facts the
engine already holds) then :meth:`QueryEngine._execute`.  The engine picks
the path; ``use_index`` / ``partitions`` only *force* a reference path.

The engine is *mutation-aware*: its data lives in a
:class:`~repro.live.VersionedTable` (a plain :class:`Table` is wrapped in
a private one), every operation borrows the source's atomically captured
``(version, snapshot, shards)`` state for its own length and keeps
nothing of it afterwards (an idle engine holds no version), cache entries
are tagged with the data version they were computed at, and
:meth:`QueryEngine.ingest` / :meth:`QueryEngine.delete_where` mutate the
source and surgically evict the superseded cache entries; shards rebuild
lazily.  Siblings sharing one source observe every mutation; static
workloads stay at version 1 and pay one dictionary read per operation.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import StorageError, UnknownColumnError
from repro.obs.trace import current_span, tracing_active
from repro.sdl.predicates import NoConstraint, Predicate
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation, product_grid
from repro.storage.cache import ResultCache
from repro.storage.expression import bind
from repro.storage.partition import PartitionedTable
from repro.storage.table import Table
from repro.storage.types import DataType

if TYPE_CHECKING:  # repro.live sits above this module (see QueryEngine.__init__)
    from repro.live.versioned import LiveState

__all__ = [
    "AggregateFrontEnd",
    "OperationCounter",
    "QueryEngine",
    "resolve_index_features",
]

#: The index features ``use_index`` can force, one by one:
#:
#: ``zonemap``
#:     Per-partition numeric min/max that skip shards a range provably
#:     cannot match (:mod:`repro.storage.zonemap`).
#: ``maskreuse``
#:     Incremental mask algebra: a drill-down ANDs the parent step's
#:     cached selection vector with only the new predicate's mask.
#:
#: A nominal set needs no index: the column answers it in one pass
#: (:meth:`~repro.storage.column.StringColumn.mask_set`).
INDEX_FEATURES = frozenset({"zonemap", "maskreuse"})

_INDEX_OFF_WORDS = frozenset({"", "none", "off", "false", "no", "0"})
_INDEX_ALL_WORDS = frozenset({"all", "true", "yes", "on", "1"})

#: Fewest rows at which an unforced engine looks for a resident parent
#: mask: the measured break-even (docs/architecture.md, How the engine
#: chooses a path), as the search costs a fixed time per uncached mask and
#: the scan it saves costs time per row.
REUSE_MIN_ROWS = 10_000


def resolve_index_features(value: Any) -> frozenset:
    """Normalise a ``use_index`` argument into a set of feature names.

    Accepted forms:

    * ``False`` / ``"none"`` / ``"off"`` — no indexes (the plain scan);
    * ``True`` / ``"true"`` / ``"all"`` — every feature in
      :data:`INDEX_FEATURES`;
    * a comma-separated string (``"zonemap,maskreuse"``, the
      ``memory?index=...`` backend-spec form) or any iterable of feature
      names.

    Unknown feature names raise :class:`~repro.errors.StorageError`.
    """
    if isinstance(value, str):
        features: set = set()
        for part in value.lower().split(","):
            word = part.strip()
            # Ignored: bench/workloads.py's live_ingest spec still names it.
            if word in _INDEX_OFF_WORDS or word == "bitmap":
                continue
            if word in _INDEX_ALL_WORDS:
                features |= INDEX_FEATURES
            elif word in INDEX_FEATURES:
                features.add(word)
            else:
                raise StorageError(
                    f"unknown index feature {word!r}; expected one of "
                    f"{sorted(INDEX_FEATURES)}, 'all' or 'none'"
                )
        return frozenset(features)
    if isinstance(value, Iterable):
        features = set()
        for item in value:
            features |= resolve_index_features(item)
        return frozenset(features)
    return INDEX_FEATURES if value else frozenset()


#: A ``K × L`` contingency table of two segmentations, row-major.
CrossTab = Tuple[Tuple[int, ...], ...]


def aggregate_key(op: str, attribute: Optional[str], query: Optional[SDLQuery]) -> str:
    """The aggregate-cache key ``<op>:<attribute>:<key>`` of a bound query.

    A count (``attribute`` ``None``) keys every query apart; an aggregate
    of an attribute over ``None`` or an unconstrained query reads the
    whole column, so those share the empty key.
    """
    if attribute is None:
        return f"{op}::{query.key}"
    unconstrained = query is None or not query.constrained_attributes
    return f"{op}:{attribute}:{'' if unconstrained else query.key}"


@dataclass
class OperationCounter:
    """Tally of back-end operations issued by the advisor.

    The counter records *logical* work as seen by this engine; *cache*
    statistics (hits, misses, evictions, memory footprint) live in the
    engine's :class:`~repro.storage.cache.ResultCache` and — when the cache
    is shared between engines — aggregate the traffic of every session
    using it (see :meth:`QueryEngine.stats`).

    Tallies are **thread-safe**: every mutation goes through :meth:`add`,
    which applies the whole delta under an internal lock, so concurrent
    callers of one engine never drop counts.
    Reading individual attributes stays lock-free; :meth:`snapshot` takes
    the lock for a consistent multi-field view.

    Attributes
    ----------
    evaluations:
        Number of query evaluations that actually scanned columns.
    cache_hits:
        Number of evaluations answered from the shared mask cache
        (including duplicates coalesced inside one batched pass).
    aggregate_hits:
        Number of count/median/min-max requests answered from the shared
        aggregate cache without touching a mask (only with
        ``cache_aggregates=True``).
    count_calls:
        Number of cardinality requests.
    median_calls:
        Number of median computations.
    frequency_calls:
        Number of value-frequency (group-by count) computations.
    minmax_calls:
        Number of min/max computations.
    crosstab_calls:
        Number of contingency tables of two segmentations
        (:meth:`QueryEngine.crosstab`).
    batch_calls:
        Number of multi-query engine passes (:meth:`QueryEngine.count_batch`).
    skipped_partitions:
        Number of shards skipped by zone-map pruning — shards the
        skipping tier proved empty under a query without scanning them
        (only with the ``zonemap`` index feature; see
        :mod:`repro.storage.zonemap`).  Purely observational: results are
        identical with and without skipping, so tests and benches assert
        on this tally to show skipping actually happened.
    """

    evaluations: int = 0
    cache_hits: int = 0
    aggregate_hits: int = 0
    count_calls: int = 0
    median_calls: int = 0
    frequency_calls: int = 0
    minmax_calls: int = 0
    crosstab_calls: int = 0
    batch_calls: int = 0
    skipped_partitions: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, **deltas: int) -> None:
        """Atomically add deltas to the named tallies.

        ``counter.add(count_calls=1, cache_hits=2)`` is the thread-safe
        replacement for bare ``+=`` mutations; the whole delta is applied
        under the counter's lock.
        """
        with self._lock:
            for name, delta in deltas.items():
                if name not in self._FIELDS:
                    raise AttributeError(f"OperationCounter has no tally {name!r}")
                setattr(self, name, getattr(self, name) + int(delta))

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            for name in self._FIELDS:
                setattr(self, name, 0)

    @property
    def total_database_operations(self) -> int:
        """Total number of logical database operations issued."""
        return (
            self.count_calls
            + self.median_calls
            + self.frequency_calls
            + self.minmax_calls
            + self.crosstab_calls
        )

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy, convenient for benchmark reporting."""
        with self._lock:
            return {
                **{name: getattr(self, name) for name in self._FIELDS},
                "total_database_operations": self.total_database_operations,
            }


#: The tallies, in declaration order (the lock is no tally).
OperationCounter._FIELDS = tuple(f.name for f in fields(OperationCounter) if f.compare)


_NO_HOLD: ContextManager[Any] = nullcontext()  # reusable: it holds nothing


class AggregateFrontEnd:
    """The policy around the advisor's aggregates, written once for every backend.

    Counts and medians (the paper's two operations, Section 5.1), min/max,
    value frequencies and contingency tables all take one front half here:
    tally the call, capture the operation's state, bind the query to the
    state's schema, key it (:func:`aggregate_key`), answer from or fill
    the aggregate cache (with ``cache_aggregates``; frequencies and
    contingency tables are never cached), and report the latency to the
    metrics sink and the ambient span.  :meth:`count_batch` also counts
    each bound key once.

    A backend sets ``counter``, ``_cache`` and ``_cache_aggregates`` and
    supplies the hooks:

    * ``_refresh()`` — the state one operation captures, with the data
      ``version`` its answer is cached at, the ``schema`` its query binds
      to and the ``partitions`` its span reports;
    * ``_count``, ``_median``, ``_minmax``, ``_frequencies`` — the
      uncached primitives, each called as ``(attribute, query, state)``
      with a bound query (``attribute`` is ``None`` for a count) and
      returning the value and the span label of the path it took;
    * ``_crosstab(first, second, state)`` optionally — by default the
      table is counted cell by cell with ``_count``;
    * ``_reading()`` optionally — what one operation holds from
      ``_refresh()`` through its answer (SQLite: the shared lock); nothing
      by default, as the memory engine's state is an immutable snapshot.
    """

    counter: OperationCounter
    _cache: ResultCache
    _cache_aggregates: bool
    #: ``(op, seconds)`` per aggregate when attached (:meth:`set_metrics_sink`);
    #: ``None`` never reads the clock.
    _metrics_sink: Optional[Callable[[str, float], Any]] = None

    @property
    def cache(self) -> ResultCache:
        """The (possibly shared) result cache backing this backend."""
        return self._cache

    @property
    def schema(self) -> Mapping[str, DataType]:
        """Column name -> logical type: what a query binds to (current version)."""
        return self._refresh().schema

    @property
    def column_names(self) -> List[str]:
        """Attributes of the relation, in schema order."""
        return list(self.schema)

    def dtype_of(self, attribute: str) -> DataType:
        """The logical type of ``attribute``."""
        schema = self.schema
        if attribute not in schema:
            raise UnknownColumnError(attribute, tuple(schema))
        return schema[attribute]

    def is_numeric(self, attribute: str) -> bool:
        """Whether ``attribute`` supports arithmetic medians (paper §4.1)."""
        return self.dtype_of(attribute).is_numeric

    def set_metrics_sink(self, sink: Optional[Callable[[str, float], Any]]) -> None:
        """Attach a latency sink called as ``sink(op, seconds)`` per aggregate.

        The service layer reaches this duck-typed through whatever backend
        wrapper stack it opened (wrappers delegate unknown attributes to
        their inner engine), so the storage layer stays import-free of the
        observability package's registry.
        """
        self._metrics_sink = sink  # an atomic reference swap needs no lock

    def count(self, query: SDLQuery) -> int:
        """``|R(Q)|``: number of rows selected by the query."""
        return self._aggregate("count", None, query, self._count)

    def median(self, attribute: str, query: Optional[SDLQuery] = None) -> Any:
        """Arithmetic median of ``attribute`` over the query's result set."""
        return self._aggregate("median", attribute, query, self._median)

    def minmax(self, attribute: str, query: Optional[SDLQuery] = None) -> Tuple[Any, Any]:
        """Minimum and maximum of ``attribute`` over the query's result set."""
        return self._aggregate("minmax", attribute, query, self._minmax)

    def value_frequencies(
        self, attribute: str, query: Optional[SDLQuery] = None
    ) -> Dict[Any, int]:
        """Value -> count of ``attribute`` over the query's result set."""
        return self._aggregate("frequency", attribute, query, self._frequencies, cached=False)

    def crosstab(self, first: Segmentation, second: Segmentation) -> CrossTab:
        """The ``K × L`` contingency table of ``first × second``.

        Entry ``(i, j)`` counts the rows in piece ``i`` of ``first`` and
        piece ``j`` of ``second``: the count of the SDL product's cell
        (:func:`~repro.sdl.segmentation.product_grid`), 0 where the two
        pieces contradict.

        Raises
        ------
        CompositionError
            When the operands partition different contexts.
        """
        return self._aggregate(
            "crosstab",
            None,
            None,
            lambda _attribute, _query, state: self._crosstab(first, second, state),
            cached=False,
        )

    def count_batch(self, queries: Sequence[SDLQuery]) -> Tuple[int, ...]:
        """Cardinalities of many queries in a single engine pass.

        Queries that bind to one key are counted once and the result
        fanned out, so a batch of ``n`` requests touching ``u`` unique
        selections performs ``u`` evaluations at most.  Accounting matches
        the sequential equivalent: one count call per request, duplicates
        recorded as cache hits.
        """
        with self._reading():
            state = self._refresh()
            bound = [bind(query, state.schema) for query in queries]
            if not bound:
                return ()
            self.counter.add(batch_calls=1)
            positions: Dict[str, List[int]] = {}
            for index, query in enumerate(bound):
                positions.setdefault(aggregate_key("count", None, query), []).append(index)
            results: List[int] = [0] * len(bound)
            for key, indices in positions.items():
                self.counter.add(count_calls=len(indices))
                value = self._aggregate_get(key, state.version)
                if value is None:
                    value = self._count(None, bound[indices[0]], state)[0]
                    self._aggregate_put(key, value, state.version)
                self.counter.add(cache_hits=len(indices) - 1)
                for position in indices:
                    results[position] = value
        return tuple(results)

    def _aggregate(
        self,
        op: str,
        attribute: Optional[str],
        query: Optional[SDLQuery],
        compute: Callable[[Optional[str], Optional[SDLQuery], Any], Tuple[Any, str]],
        cached: bool = True,
    ) -> Any:
        """One aggregate through the front half; ``compute`` is its primitive."""
        # Unobserved, the clock is never read: disabled observability costs
        # one attribute read and one module-global check.
        observed = self._metrics_sink is not None or tracing_active()
        started = time.perf_counter() if observed else 0.0
        self.counter.add(**{op + "_calls": 1})
        with self._reading():
            state = self._refresh()
            if query is not None:
                query = bind(query, state.schema)
            key = aggregate_key(op, attribute, query) if cached else None
            value = None if key is None else self._aggregate_get(key, state.version)
            if value is not None:
                if observed:
                    self._observe(op, started, state, attribute)
                return value
            skipped = self.counter.skipped_partitions
            value, taken = compute(attribute, query, state)
            if key is not None:
                self._aggregate_put(key, value, state.version)
        if observed:
            skipped = self.counter.skipped_partitions - skipped
            self._observe(op, started, state, attribute, path=taken, skipped_partitions=skipped)
        return value

    def _reading(self) -> ContextManager[Any]:
        return _NO_HOLD

    def _crosstab(
        self, first: Segmentation, second: Segmentation, state: Any
    ) -> Tuple[CrossTab, str]:
        """A contingency table counted cell by cell with the ``_count``
        primitive, as ``count_batch`` over the product's cells would, and
        its span label."""
        table = tuple(
            tuple(
                0 if cell is None else self._count(None, bind(cell, state.schema), state)[0]
                for cell in row
            )
            for row in product_grid(first, second)
        )
        return table, "cells"

    def _aggregate_get(self, key: str, version: int) -> Optional[Any]:
        """The cached aggregate, tallied as a hit; ``None`` without
        ``cache_aggregates``."""
        if not self._cache_aggregates:
            return None
        value = self._cache.get(key, version=version)
        if value is not None:
            self.counter.add(aggregate_hits=1)
        return value

    def _aggregate_put(self, key: str, value: Any, version: int) -> None:
        if self._cache_aggregates:
            self._cache.put(key, value, version=version)

    def _observe(
        self,
        op: str,
        started: float,
        state: Any,
        attribute: Optional[str],
        **computed: Any,
    ) -> None:
        """Report one finished aggregate to the sink and the ambient span.

        ``computed`` holds a computed answer's ``path`` label and skipped
        shards (empty: an aggregate-cache hit).  Runs *after* the measured
        region: the sink call is one histogram append, and the span child
        is attached retroactively (:meth:`~repro.obs.trace.Span.record`),
        so nothing observability-related executes inside the timed
        operation.
        """
        elapsed = time.perf_counter() - started
        sink = self._metrics_sink
        if sink is not None:
            sink(op, elapsed)
        parent = current_span()
        if parent is not None:
            hit = not computed
            if attribute is not None:
                computed["attribute"] = attribute
            parent.record(
                f"engine.{op}", elapsed, partitions=state.partitions, cache_hit=hit, **computed
            )


class AccessPath(NamedTuple):
    """How :meth:`QueryEngine._execute` computes one uncached mask (or count).

    ``parent``: the resident parent mask and the one new predicate to scan
    and AND onto it (``None``: scan the whole query).  The scan skips
    shards by ``zonemap`` and, with ``assemble`` off, sums per-shard
    counts instead of building the mask.
    """

    parent: Optional[Tuple[np.ndarray, Predicate]]
    zonemap: bool
    assemble: bool = True

    @property
    def scan(self) -> str:
        """The scan's span label, e.g. ``scan+zonemap``."""
        return ("scan" if self.assemble else "count") + ("+zonemap" if self.zonemap else "")


class QueryEngine(AggregateFrontEnd):
    """Evaluates SDL queries against a single table.

    Parameters
    ----------
    table:
        The relation to query — a :class:`~repro.storage.table.Table`
        (wrapped in a private :class:`~repro.live.VersionedTable`) or a
        shared ``VersionedTable`` so several engines observe the same
        mutations (the service layer's sibling path).
    cache_size:
        Maximum number of results kept in the engine's private cache when
        no shared ``cache`` is given.  ``0`` disables caching entirely
        (used by the scalability ablations).
    use_index:
        ``None`` (the default) lets the engine pick index features (see
        :meth:`_plan`); anything :func:`resolve_index_features` accepts —
        ``False``, ``"all"``, ``"zonemap,maskreuse"`` — *forces* exactly
        those, which is how tests and ablations pin a reference path.
        Results are bit-for-bit identical for every setting (the
        differential harness enforces it); only the work differs.
    cache:
        An externally owned :class:`~repro.storage.cache.ResultCache` to
        use instead of a private one.  Sharing a cache between engines is
        only sound when they query the **same table** — the service layer
        maintains one cache per registered table.
    cache_aggregates:
        Also cache count/median/min-max results (not just masks) in the
        cache, keyed by ``<op>:<attribute>:<key>``.  Off by default
        so single-engine operation accounting matches the paper's
        experiments; the service layer turns it on.
    partitions:
        Forces this many contiguous row-range shards (see
        :class:`~repro.storage.partition.PartitionedTable`), with zone
        maps.  ``None`` (the default): one shard, the table itself.
        Shards are evaluated inline; results, counters and cache contents
        are identical for every count.
    """

    def __init__(
        self,
        table: Union[Table, Any],
        cache_size: int = 256,
        use_index: Union[None, bool, str, Iterable] = None,
        cache: Optional[ResultCache] = None,
        cache_aggregates: bool = False,
        partitions: Optional[int] = None,
    ):
        # Deferred import: repro.live sits above repro.storage.statistics,
        # which itself imports this module.
        from repro.live.versioned import VersionedTable

        if isinstance(table, VersionedTable):
            self._source = table
        else:
            self._source = VersionedTable(table)
        self.counter = OperationCounter()
        self._cache_size = int(cache_size) if cache is None else cache.capacity
        self._cache = cache if cache is not None else ResultCache(
            capacity=int(cache_size), name=f"engine:{self._source.name}"
        )
        self._cache_aggregates = bool(cache_aggregates)
        self._forced_partitions = None if partitions is None else max(1, int(partitions))
        self._forced_features = (
            None if use_index is None else resolve_index_features(use_index)
        )
        if self._forced_features is not None:
            self._features = self._forced_features
        elif (self._forced_partitions or 1) > 1:
            self._features = INDEX_FEATURES
        else:
            # Reuse is sized per query in _plan.  Zone maps only with forced
            # shards: the one unforced shard is skipped only by a range that
            # misses the whole column.
            self._features = INDEX_FEATURES - {"zonemap"}

    # -- live data -------------------------------------------------------------

    def _refresh(self) -> LiveState:
        """The current evaluation state, borrowed from the source.

        The source owns one ``(version, snapshot, shards)`` triple per
        version and partition count, shared by every sibling; the engine
        keeps no copy, so the triple dies with its version.
        """
        return self._source.state(self._forced_partitions or 1)

    @property
    def source(self) -> Any:
        """The shared :class:`~repro.live.VersionedTable` behind the engine."""
        return self._source

    @property
    def data_version(self) -> int:
        """Monotonic version of the data every answer is computed against."""
        return self._source.version

    def ingest(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Append a batch of row mappings; returns the new data version.

        The mutation is visible to every engine sharing this source, the
        shard set rebuilds lazily, and cache entries of superseded
        versions are evicted surgically (everything else survives).  An
        empty batch changes nothing.
        """
        version = self._source.append_batch(rows)
        self._cache.evict_superseded(version)
        return version

    def delete_where(self, query: SDLQuery) -> int:
        """Delete the rows a query selects; returns the number removed.

        A query selecting nothing keeps the version (and every cache
        entry) intact.
        """
        deleted, version = self._source.delete_where(query)
        if deleted:
            self._cache.evict_superseded(version)
        return deleted

    # -- schema introspection (ExecutionBackend protocol) ---------------------

    @property
    def table(self) -> Table:
        """The current immutable snapshot of the relation."""
        return self._refresh().table

    @property
    def name(self) -> str:
        """The relation's name."""
        return self._source.name

    @property
    def num_rows(self) -> int:
        """``|T|``: cardinality of the relation."""
        return self._refresh().table.num_rows

    def stats(self) -> Dict[str, Any]:
        """Backend statistics: identity, operation tallies and cache."""
        state = self._refresh()
        return {
            "backend": "memory",
            "table": state.table.name,
            "rows": state.table.num_rows,
            "partitions": state.partitioned.num_partitions,
            "data_version": state.version,
            "index": sorted(self._features),
            "operations": self.counter.snapshot(),
            "cache": self._cache.stats().snapshot(),
        }

    # -- backend construction helpers ----------------------------------------

    def sibling(self) -> "QueryEngine":
        """A fresh engine over the same source sharing this engine's cache.

        Used by the service layer to give each session private operation
        counters while reusing the table runtime's shared cache — and the
        same shards.  Sharing the
        :class:`~repro.live.VersionedTable` source means every sibling
        observes ingested batches and deletions immediately.
        """
        clone = QueryEngine(
            self._source,
            cache=self._cache,
            use_index=self._forced_features,
            cache_aggregates=self._cache_aggregates,
            partitions=self._forced_partitions,
        )
        # Session siblings inherit the table runtime's metrics sink, so
        # every session's aggregate latencies land in the same per-table
        # histograms.
        clone._metrics_sink = self._metrics_sink
        return clone

    def sample(self, fraction: float, seed: int) -> "QueryEngine":
        """An engine over a uniform sample of the current snapshot.

        The sample's engine is never forced and shares neither this
        engine's cache nor its counters: a sample is a small table of its
        own, and the planner serves small tables best unforced (cutting a
        2 000-row sample into the parent's eight forced shards doubled the
        cost of an advise).  Siblings share one sampled table per data
        version and seed through the source's memo.
        """
        return QueryEngine(
            self._source.sampled(fraction, seed), cache_size=self._cache_size
        )

    # -- index ---------------------------------------------------------------

    @property
    def index_features(self) -> frozenset:
        """The index features in effect (forced, or picked at construction)."""
        return self._features

    # -- partitioned execution ------------------------------------------------

    @property
    def partitions(self) -> int:
        """Number of row-range shards evaluation maps over (1 = sequential)."""
        return self._refresh().partitioned.num_partitions

    @property
    def partitioned_table(self) -> PartitionedTable:
        """The shard set backing partitioned evaluation."""
        return self._refresh().partitioned

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, query: SDLQuery) -> np.ndarray:
        """Boolean selection mask of the query over the table (cached).

        The mask is assembled from per-partition masks and cached whole —
        tagged with the data version it was computed at — so sequential and
        partitioned engines
        sharing a cache interoperate key-for-key and a mask from before an
        ingest can never answer a query issued after it.
        """
        state = self._refresh()
        return self._mask(bind(query, state.schema), state)[0]

    def _mask(self, query: SDLQuery, state: LiveState) -> Tuple[np.ndarray, str]:
        """One mask of a bound query against an already-captured live
        state, with the span label of how it was obtained."""
        key = "mask:" + query.key
        cached = self._cache.get(key, version=state.version)
        if cached is not None:
            self.counter.add(cache_hits=1)
            return cached, "cached"
        self.counter.add(evaluations=1)
        mask, taken = self._execute(self._plan(query, state), query, state)
        self._cache.put(key, mask, version=state.version)
        return mask, taken

    # -- the plan -> execute seam ------------------------------------------------

    def _plan(
        self, query: SDLQuery, state: LiveState, counting: bool = False
    ) -> AccessPath:
        """Pick the access path of one uncached mask (or count); reads, never writes.

        Forced features and shards are taken as given.  Unforced: zone
        maps only with forced shards (fixed at construction), the
        parent's mask when one is resident and the table has
        :data:`REUSE_MIN_ROWS` rows; a count skips assembling the mask
        when the cache could not keep it.
        Every path yields bit-for-bit the plain scan's answer, counters and
        cache traffic (``skipped_partitions`` aside).
        """
        features = self._features
        parent = None
        if (
            "maskreuse" in features
            and self._cache.enabled
            and (
                self._forced_features is not None
                or state.table.num_rows >= REUSE_MIN_ROWS
            )
        ):
            parent = self._resident_parent(query, state)
        return AccessPath(
            parent,
            zonemap="zonemap" in features,
            assemble=not counting or self._cache.enabled,
        )

    def _execute(
        self, path: AccessPath, query: SDLQuery, state: LiveState
    ) -> Tuple[Any, str]:
        """Carry a planned path out: the mask (the count when not assembling)
        and the span label of the path taken."""
        if path.parent is not None:
            parent_mask, delta = path.parent
            # Scan only the new predicate, through the same indexes.
            return parent_mask & self._scan(path, SDLQuery([delta]), state), "reuse"
        return self._scan(path, query, state), path.scan

    def _scan(self, path: AccessPath, query: SDLQuery, state: LiveState) -> Any:
        skipping = state.partitioned.skipping()
        run = skipping.query_mask if path.assemble else skipping.count
        result, skipped = run(query, zonemaps=path.zonemap)
        if skipped:
            self.counter.add(skipped_partitions=skipped)
        return result

    # -- incremental mask algebra ----------------------------------------------

    def _resident_parent(
        self, query: SDLQuery, state: LiveState
    ) -> Optional[Tuple[np.ndarray, Predicate]]:
        """A cached parent mask and the one predicate separating the query from it.

        A parent is the query with one constrained predicate relaxed to
        ``attr:`` — the shape of HB-cuts pieces, product cells and
        drill-downs — so the query's mask is the parent's ANDed with that
        predicate's.  Predicates are tried in query order; the first
        relaxation whose mask is cached at the current data version wins.
        The lookup uses :meth:`ResultCache.peek` — no hit/miss/LRU side
        effects.  ``None``: no such parent.
        """
        for predicate in query.predicates:
            if not predicate.is_constrained:
                continue
            relaxed = SDLQuery(
                NoConstraint(p.attribute) if p is predicate else p
                for p in query.predicates
            )
            parent_mask = self._cache.peek("mask:" + relaxed.key, version=state.version)
            if parent_mask is not None and len(parent_mask) == state.table.num_rows:
                return parent_mask, predicate
        return None

    # -- the uncached primitives (AggregateFrontEnd hooks) ----------------------

    def _count(
        self, attribute: None, query: SDLQuery, state: LiveState
    ) -> Tuple[int, str]:
        """One cardinality and its span label.

        With mask caching disabled (``cache_size=0``) there is nothing to
        look up or keep, so the planned path sums per-shard counts without
        assembling the mask — the uncached-scan path the scalability
        ablations measure.  Tallies match the mask path: one evaluation
        per scan.
        """
        if self._cache.enabled:
            mask, taken = self._mask(query, state)
            return int(np.count_nonzero(mask)), taken
        self.counter.add(evaluations=1)
        return self._execute(self._plan(query, state, counting=True), query, state)

    def _crosstab(
        self, first: Segmentation, second: Segmentation, state: LiveState
    ) -> Tuple[CrossTab, str]:
        """A contingency table from one piece label per row and segmentation.

        Each row is labelled with the index of the piece holding it (the
        segmentation's depth outside every piece), from the pieces' masks
        at the state's version — resident in the cache, because cutting
        counted every piece.  One ``bincount`` of ``a · (L + 1) + b`` then
        counts every cell at once, and no cell mask is built or cached.
        A row in no piece (a NULL the cut left out) lands in no cell, as
        in the cell counts.  A label cannot say that pieces overlap, so
        overlapping pieces, and operands over different contexts, take
        the cells path.
        """
        if first.context == second.context:
            rows = self._labels(first, state)
            columns = None if rows is None else self._labels(second, state)
            if columns is not None:
                width = second.depth + 1
                counts = np.bincount(
                    rows * width + columns, minlength=(first.depth + 1) * width
                ).reshape(first.depth + 1, width)
                return tuple(map(tuple, counts[:-1, :-1].tolist())), "labels"
        return super()._crosstab(first, second, state)

    def _labels(self, segmentation: Segmentation, state: LiveState) -> Optional[np.ndarray]:
        """Each row's piece index in ``segmentation``, its depth outside
        every piece; ``None`` when two pieces share a row."""
        outside = segmentation.depth
        labels = np.full(state.table.num_rows, outside, dtype=np.intp)
        labelled = 0
        for index, segment in enumerate(segmentation.segments):
            mask = self._mask(bind(segment.query, state.schema), state)[0]
            labels[mask] = index
            labelled += int(np.count_nonzero(mask))
        if int(np.count_nonzero(labels != outside)) != labelled:
            return None
        return labels

    def _selection(
        self, attribute: str, query: Optional[SDLQuery], state: LiveState
    ) -> Tuple[Any, Optional[np.ndarray], str]:
        """``attribute``'s column, and the mask of a constrained query with its
        span label; an unconstrained one reads the whole column (``None``)."""
        column = state.table.column(attribute)
        if query is None or not query.constrained_attributes:
            return column, None, "column"
        return (column, *self._mask(query, state))

    def _median(
        self, attribute: str, query: Optional[SDLQuery], state: LiveState
    ) -> Tuple[Any, str]:
        """One median and its mask's span label; nominal columns raise."""
        column, mask, taken = self._selection(attribute, query, state)
        return column.median(mask), taken

    def _minmax(
        self, attribute: str, query: Optional[SDLQuery], state: LiveState
    ) -> Tuple[Tuple[Any, Any], str]:
        column, mask, taken = self._selection(attribute, query, state)
        return (column.minimum(mask), column.maximum(mask)), taken

    def _frequencies(
        self, attribute: str, query: Optional[SDLQuery], state: LiveState
    ) -> Tuple[Dict[Any, int], str]:
        column, mask, taken = self._selection(attribute, query, state)
        return column.value_counts(mask), taken

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        index = ",".join(sorted(self._features)) or "off"
        return (
            f"QueryEngine(table={self.name!r}, rows={self.num_rows}, "
            f"cache_size={self._cache_size}, index={index}, "
            f"partitions={self.partitions}, version={self.data_version})"
        )
