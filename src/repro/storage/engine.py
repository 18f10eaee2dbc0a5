"""The query engine: counts, medians, frequencies over SDL queries.

The paper (Section 5.1) observes that Charles only issues two kinds of
database operations — *median calculations* and *counts over predicates* —
and that a column store fits this workload.  :class:`QueryEngine` is the
substitute back-end: it evaluates SDL queries into selection masks over a
:class:`~repro.storage.table.Table` and exposes exactly the aggregates the
advisor needs.

Caching lives in :class:`~repro.storage.cache.ResultCache` — a lockable,
size-bounded, statistics-reporting LRU (it replaced the per-engine
``OrderedDict`` the engine used to carry).  By default every engine owns a
private cache; passing a shared instance via the ``cache`` parameter lets
many engines over the **same table** reuse one another's selection masks,
which is how the :mod:`repro.service` layer shares work between concurrent
user sessions.  With ``cache_aggregates=True`` the engine additionally
caches count/median/min-max *results* keyed by the query's
:attr:`~repro.sdl.query.SDLQuery.key`, so repeated aggregates skip the
mask entirely.

Every call is tallied in an :class:`OperationCounter`, so benchmarks can
report back-end work (number of scans, medians, counts, cache hits)
independent of wall-clock noise; cache-level statistics (hit rate,
evictions, approximate bytes) are reported by the cache itself
(:meth:`~repro.storage.cache.ResultCache.stats`) and surfaced per table by
:meth:`repro.service.AdvisorService.stats`.

Evaluation is *partitioned*: the engine always routes masks, counts and
medians through a :class:`~repro.storage.partition.PartitionedTable` —
the classic sequential engine is simply the one-shard special case with
the inline mapper.  With several shards and a
:class:`~repro.backends.pool.ExecutorPool`, per-partition work fans out
across worker threads while counters, cache contents and results stay
bit-for-bit identical to the sequential path (masks concatenate, counts
sum, medians merge through per-partition value gathers).

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
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
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

from repro.errors import StorageError
from repro.obs.trace import current_span, tracing_active
from repro.sdl.predicates import NoConstraint, Predicate
from repro.sdl.query import SDLQuery
from repro.storage.cache import ResultCache
from repro.storage.partition import PartitionedTable
from repro.storage.table import Table
from repro.storage.types import DataType

if TYPE_CHECKING:  # repro.live sits above this module (see QueryEngine.__init__)
    from repro.live.versioned import LiveState

__all__ = [
    "OperationCounter",
    "QueryEngine",
    "resolve_index_features",
    "aggregate_key",
    "deduplicated_count_batch",
]

#: The index features ``use_index`` can force, one by one:
#:
#: ``zonemap``
#:     Per-partition min/max/null/distinct statistics that skip shards a
#:     predicate provably cannot match (:mod:`repro.storage.zonemap`).
#: ``maskreuse``
#:     Incremental mask algebra: a drill-down ANDs the parent step's
#:     cached selection vector with only the new predicate's mask.
#:
#: A nominal set needs no index: the column answers it in one pass
#: (:meth:`~repro.storage.column.StringColumn.mask_set`).
INDEX_FEATURES = frozenset({"zonemap", "maskreuse"})

_INDEX_OFF_WORDS = frozenset({"", "none", "off", "false", "no", "0"})
_INDEX_ALL_WORDS = frozenset({"all", "true", "yes", "on", "1"})

#: Planner thresholds, each the measured break-even (CHANGES.md, PR 12).
#: Fewest rows per shard at which an unforced engine maps shards through
#: its pool rather than inline.
FANOUT_MIN_ROWS_PER_SHARD = 1_000_000
#: Fewest rows at which an unforced engine looks for a resident parent
#: mask (the search costs a fixed time per uncached mask, a scan per row).
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


def aggregate_key(op: str, attribute: str, query: Optional[SDLQuery]) -> str:
    """The aggregate-cache key ``<op>:<attribute>:<key>`` (``None``
    and unconstrained queries share the empty key)."""
    unconstrained = query is None or not query.constrained_attributes
    return f"{op}:{attribute}:{'' if unconstrained else query.key}"


def deduplicated_count_batch(
    queries: Sequence[SDLQuery],
    counter: "OperationCounter",
    aggregate_get,
    aggregate_put,
    compute,
) -> Tuple[int, ...]:
    """Shared engine-pass skeleton for :meth:`count_batch` implementations.

    Both the columnar engine and the SQLite backend route their batches
    through this single implementation so their traces stay bit-for-bit
    comparable.  ``counter`` is the backend's :class:`OperationCounter`
    (tallied in place), ``aggregate_get`` / ``aggregate_put`` its
    aggregate-cache accessors (keyed ``count::<key>``) and
    ``compute`` maps a query to one uncached cardinality.  Each distinct
    key is computed once and its result fanned out, tallying one count
    call per request and the duplicates as cache hits — exactly what the
    sequential equivalent would have recorded.
    """
    if not queries:
        return ()
    counter.add(batch_calls=1)
    results: List[int] = [0] * len(queries)
    positions: Dict[str, List[int]] = {}
    for index, query in enumerate(queries):
        positions.setdefault("count::" + query.key, []).append(index)
    for key, indices in positions.items():
        counter.add(count_calls=len(indices))
        value = aggregate_get(key)
        if value is None:
            value = compute(queries[indices[0]])
            aggregate_put(key, value)
        counter.add(cache_hits=len(indices) - 1)
        for position in indices:
            results[position] = value
    return tuple(results)


@dataclass
class OperationCounter:
    """Tally of back-end operations issued by the advisor.

    The counter records *logical* work as seen by this engine; *cache*
    statistics (hits, misses, evictions, memory footprint) live in the
    engine's :class:`~repro.storage.cache.ResultCache` and — when the cache
    is shared between engines — aggregate the traffic of every session
    using it (see :meth:`QueryEngine.stats`).

    Tallies are **thread-safe**: every mutation goes through :meth:`add`
    (or :meth:`merge`, for folding per-worker counters together), which
    applies the whole delta under an internal lock, so parallel engine
    passes and concurrent HB-cuts INDEP evaluations never drop counts.
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
    batch_calls: int = 0
    skipped_partitions: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    _FIELDS = (
        "evaluations",
        "cache_hits",
        "aggregate_hits",
        "count_calls",
        "median_calls",
        "frequency_calls",
        "minmax_calls",
        "batch_calls",
        "skipped_partitions",
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

    def merge(self, other: "OperationCounter") -> None:
        """Atomically fold another counter's tallies into this one.

        The per-worker-counter alternative to sharing one locked counter:
        workers tally privately and merge once at the end of a pass.
        """
        self.add(**{name: getattr(other, name) for name in self._FIELDS})

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
        )

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy, convenient for benchmark reporting."""
        with self._lock:
            snapshot = {name: getattr(self, name) for name in self._FIELDS}
        snapshot["total_database_operations"] = (
            snapshot["count_calls"]
            + snapshot["median_calls"]
            + snapshot["frequency_calls"]
            + snapshot["minmax_calls"]
        )
        return snapshot


class AccessPath(NamedTuple):
    """How :meth:`QueryEngine._execute` computes one uncached mask (or count).

    ``parent``: the resident parent mask and the one new predicate to scan
    and AND onto it (``None``: scan the whole query).  The scan skips
    shards by ``zonemap``, maps shards through the pool on ``fanout`` and,
    with ``assemble`` off, sums per-shard counts instead of building the
    mask.
    """

    parent: Optional[Tuple[np.ndarray, Predicate]]
    zonemap: bool
    fanout: bool
    assemble: bool = True

    @property
    def scan(self) -> str:
        """The scan's span label, e.g. ``scan+zonemap+fanout``."""
        steps = ["scan" if self.assemble else "count"]
        steps += [name for name in ("zonemap", "fanout") if getattr(self, name)]
        return "+".join(steps)


class QueryEngine:
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
        Number of contiguous row-range shards evaluation maps over (see
        :class:`~repro.storage.partition.PartitionedTable`).  ``None``
        (the default): one per pool worker (one without a pool — the
        classic sequential engine), fanned out only when large enough;
        an explicit count is forced, mapped through the pool when there
        is one and scanned inline when there is not — a shard count never
        starts threads.  Results, counters and cache contents are
        identical either way.
    pool:
        An :class:`~repro.backends.pool.ExecutorPool` running the
        per-partition work; ``None`` maps inline on the calling thread.
        Pools are shared, not owned — the engine never shuts one down.
    """

    def __init__(
        self,
        table: Union[Table, Any],
        cache_size: int = 256,
        use_index: Union[None, bool, str, Iterable] = None,
        cache: Optional[ResultCache] = None,
        cache_aggregates: bool = False,
        partitions: Optional[int] = None,
        pool: Optional[Any] = None,
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
        self._pool = pool
        # Unforced: one shard per pool worker, one without a pool.
        self._forced_partitions = None if partitions is None else max(1, int(partitions))
        self._partitions = self._forced_partitions or (
            pool.workers if pool is not None else 1
        )
        self._forced_features = (
            None if use_index is None else resolve_index_features(use_index)
        )
        if self._forced_features is not None:
            self._features = self._forced_features
        elif self._partitions > 1:
            self._features = INDEX_FEATURES
        else:
            # Reuse is sized per query in _plan; a single shard can skip
            # nothing, so zone maps need at least two.
            self._features = INDEX_FEATURES - {"zonemap"}
        # Optional observability sink: a callable ``(op, seconds)`` fed by
        # count/median when attached (see set_metrics_sink).  ``None``
        # keeps the aggregate entry points on their original fast path.
        self._metrics_sink: Optional[Callable[[str, float], Any]] = None

    # -- live data -------------------------------------------------------------

    def _refresh(self) -> LiveState:
        """The current evaluation state, borrowed from the source.

        The source owns one ``(version, snapshot, shards)`` triple per
        version and partition count, shared by every sibling; the engine
        keeps no copy, so the triple dies with its version.
        """
        return self._source.state(self._partitions)

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

    @property
    def column_names(self) -> List[str]:
        """Attributes of the relation, in schema order."""
        return self._refresh().table.column_names

    def dtype_of(self, attribute: str) -> DataType:
        """The logical type of ``attribute``."""
        return self._refresh().table.column(attribute).dtype

    def is_numeric(self, attribute: str) -> bool:
        """Whether ``attribute`` supports arithmetic medians (paper §4.1)."""
        return self.dtype_of(attribute).is_numeric

    def stats(self) -> Dict[str, Any]:
        """Backend statistics: identity, operation tallies, cache and pool."""
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
            "pool": None if self._pool is None else self._pool.stats(),
        }

    # -- backend construction helpers ----------------------------------------

    def sibling(self) -> "QueryEngine":
        """A fresh engine over the same source sharing this engine's cache.

        Used by the service layer to give each session private operation
        counters while reusing the table runtime's shared cache — and,
        when partitioned, the same shards and executor pool.  Sharing the
        :class:`~repro.live.VersionedTable` source means every sibling
        observes ingested batches and deletions immediately.
        """
        clone = QueryEngine(
            self._source,
            cache=self._cache,
            use_index=self._forced_features,
            cache_aggregates=self._cache_aggregates,
            partitions=self._forced_partitions,
            pool=self._pool,
        )
        # Session siblings inherit the table runtime's metrics sink, so
        # every session's aggregate latencies land in the same per-table
        # histograms.
        clone._metrics_sink = self._metrics_sink
        return clone

    def set_metrics_sink(self, sink: Optional[Callable[[str, float], Any]]) -> None:
        """Attach a latency sink called as ``sink(op, seconds)`` per aggregate.

        The service layer reaches this duck-typed through whatever backend
        wrapper stack it opened (wrappers delegate unknown attributes to
        their inner engine), so the storage layer stays import-free of the
        observability package's registry.
        """
        self._metrics_sink = sink  # an atomic reference swap needs no lock

    def sample(self, fraction: float, seed: Optional[int] = None) -> "QueryEngine":
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

    # -- cache --------------------------------------------------------------

    @property
    def cache(self) -> ResultCache:
        """The (possibly shared) result cache backing this engine."""
        return self._cache

    # -- index ---------------------------------------------------------------

    @property
    def index_features(self) -> frozenset:
        """The index features in effect (forced, or picked at construction)."""
        return self._features

    # -- partitioned execution ------------------------------------------------

    @property
    def partitions(self) -> int:
        """Number of row-range shards evaluation maps over (1 = sequential)."""
        return self._partitions

    @property
    def partitioned_table(self) -> PartitionedTable:
        """The shard set backing partitioned evaluation."""
        return self._refresh().partitioned

    @property
    def pool(self) -> Optional[Any]:
        """The (shared) executor pool, or ``None`` for inline mapping."""
        return self._pool

    def _map_fn(self, state: LiveState) -> Optional[Callable]:
        """Where per-shard work runs: the pool's ``map``, or ``None`` (inline).

        Without a pool, always inline: only a ``workers`` request builds
        one (:meth:`~repro.backends.pool.ExecutorPool.requested`).  With a
        pool, forced ``partitions`` always go through it; unforced, only
        with several workers and :data:`FANOUT_MIN_ROWS_PER_SHARD` rows a
        shard — below that the dispatch costs more than the scan it spreads.
        """
        pool = self._pool
        if pool is None:
            return None
        if self._forced_partitions is None and (
            pool.workers <= 1
            or state.table.num_rows
            < FANOUT_MIN_ROWS_PER_SHARD * state.partitioned.num_partitions
        ):
            return None
        return pool.map

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, query: SDLQuery) -> np.ndarray:
        """Boolean selection mask of the query over the table (cached).

        The mask is assembled from per-partition masks (mapped through the
        pool when one is attached) and cached whole — tagged with the data
        version it was computed at — so sequential and partitioned engines
        sharing a cache interoperate key-for-key and a mask from before an
        ingest can never answer a query issued after it.
        """
        return self._mask(query, self._refresh())[0]

    def _mask(self, query: SDLQuery, state: LiveState) -> Tuple[np.ndarray, str]:
        """One mask against an already-captured live state, with the span
        label of how it was obtained."""
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
        maps with more than one shard (fixed at construction), the
        parent's mask when one is resident and the table has
        :data:`REUSE_MIN_ROWS` rows, the pool per :meth:`_map_fn`; a
        count skips assembling the mask when the cache could not keep it.
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
            fanout=self._map_fn(state) is not None,
            assemble=not counting or self._cache.enabled,
        )

    def _execute(
        self, path: AccessPath, query: SDLQuery, state: LiveState
    ) -> Tuple[Any, str]:
        """Carry a planned path out: the mask (the count when not assembling)
        and the span label of the path taken."""
        if path.parent is not None:
            parent_mask, delta = path.parent
            try:  # Scan only the new predicate, through the same indexes.
                return parent_mask & self._scan(path, SDLQuery([delta]), state), "reuse"
            except Exception:
                # It cannot encode: the whole query's scan then raises, or
                # short-circuits before reaching it, exactly as the plain path.
                pass
        return self._scan(path, query, state), path.scan

    def _scan(self, path: AccessPath, query: SDLQuery, state: LiveState) -> Any:
        skipping = state.partitioned.skipping()
        run = skipping.query_mask if path.assemble else skipping.count
        result, skipped = run(
            query,
            self._pool.map if path.fanout else None,
            zonemaps=path.zonemap,
        )
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

    def _aggregate_get(self, key: str, version: int) -> Optional[Any]:
        if not self._cache_aggregates:
            return None
        value = self._cache.get(key, version=version)
        if value is not None:
            self.counter.add(aggregate_hits=1)
        return value

    def _aggregate_put(self, key: str, value: Any, version: int) -> None:
        if self._cache_aggregates:
            self._cache.put(key, value, version=version)

    def _count_uncached(
        self, query: SDLQuery, state: LiveState
    ) -> Tuple[int, str]:
        """One cardinality and its span label, bypassing the aggregate cache.

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

    def count(self, query: SDLQuery) -> int:
        """``|R(Q)|``: number of rows selected by the query."""
        # Unobserved, the clock is never read: disabled observability costs
        # one attribute read and one module-global check.
        observed = self._metrics_sink is not None or tracing_active()
        started = time.perf_counter() if observed else 0.0
        self.counter.add(count_calls=1)
        state = self._refresh()
        key = "count::" + query.key
        value = self._aggregate_get(key, state.version)
        if value is not None:
            if observed:
                self._observe("count", started, state)
            return value
        skipped_before = self.counter.skipped_partitions
        value, taken = self._count_uncached(query, state)
        self._aggregate_put(key, value, state.version)
        if observed:
            skipped = self.counter.skipped_partitions - skipped_before
            self._observe("count", started, state, taken, skipped_partitions=skipped)
        return value

    def _observe(
        self,
        op: str,
        started: float,
        state: LiveState,
        taken: Optional[str] = None,
        **attributes: Any,
    ) -> None:
        """Report one finished aggregate to the sink and the ambient span.

        ``taken`` is the path label of a computed answer (``None``: an
        aggregate-cache hit).  Runs *after* the measured region: the sink
        call is one histogram append, and the span child is attached
        retroactively (:meth:`~repro.obs.trace.Span.record`), so nothing
        observability-related executes inside the timed operation.
        """
        elapsed = time.perf_counter() - started
        sink = self._metrics_sink
        if sink is not None:
            sink(op, elapsed)
        parent = current_span()
        if parent is not None:
            if taken is not None:
                attributes["path"] = taken
            parent.record(
                f"engine.{op}",
                elapsed,
                partitions=state.partitioned.num_partitions,
                cache_hit=taken is None,
                **attributes,
            )

    # -- aggregates --------------------------------------------------------------

    def _median_uncached(
        self, attribute: str, query: Optional[SDLQuery], state: LiveState
    ) -> Tuple[Any, str]:
        """One median and its mask's span label, bypassing the aggregate cache.

        Constrained medians merge per-shard value gathers, mapped wherever
        :meth:`_map_fn` maps scans (the mask still comes from — and lands
        in — the shared cache); nominal columns raise exactly like the
        sequential ``column.median`` path.
        """
        column = state.table.column(attribute)
        if query is None or not query.constrained_attributes:
            return column.median(), "column"
        mask, taken = self._mask(query, state)
        if hasattr(column, "median_from_gathered"):
            return state.partitioned.median(attribute, mask, self._map_fn(state)), taken
        return column.median(mask), taken

    def median(self, attribute: str, query: Optional[SDLQuery] = None) -> Any:
        """Arithmetic median of ``attribute`` over the query's result set."""
        observed = self._metrics_sink is not None or tracing_active()
        started = time.perf_counter() if observed else 0.0
        self.counter.add(median_calls=1)
        state = self._refresh()
        key = aggregate_key("median", attribute, query)
        value = self._aggregate_get(key, state.version)
        if value is not None:
            if observed:
                self._observe("median", started, state, attribute=attribute)
            return value
        value, taken = self._median_uncached(attribute, query, state)
        self._aggregate_put(key, value, state.version)
        if observed:
            self._observe("median", started, state, taken, attribute=attribute)
        return value

    def minmax(self, attribute: str, query: Optional[SDLQuery] = None) -> Tuple[Any, Any]:
        """Minimum and maximum of ``attribute`` over the query's result set."""
        self.counter.add(minmax_calls=1)
        state = self._refresh()
        key = aggregate_key("minmax", attribute, query)
        cached = self._aggregate_get(key, state.version)
        if cached is not None:
            return cached
        column = state.table.column(attribute)
        unconstrained = query is None or not query.constrained_attributes
        mask = None if unconstrained else self._mask(query, state)[0]
        value = (column.minimum(mask), column.maximum(mask))
        self._aggregate_put(key, value, state.version)
        return value

    def value_frequencies(
        self, attribute: str, query: Optional[SDLQuery] = None
    ) -> Dict[Any, int]:
        """Value -> count of ``attribute`` over the query's result set."""
        self.counter.add(frequency_calls=1)
        state = self._refresh()
        column = state.table.column(attribute)
        mask = None if query is None else self._mask(query, state)[0]
        return column.value_counts(mask)

    # -- batched passes -----------------------------------------------------------

    def count_batch(self, queries: Sequence[SDLQuery]) -> Tuple[int, ...]:
        """Cardinalities of many queries in a single engine pass.

        Queries with identical keys are evaluated once and their
        result fanned out, so a batch of ``n`` requests touching ``u``
        unique selections performs ``u`` evaluations at most.  Operation
        accounting matches the sequential equivalent: one count call per
        request, duplicates recorded as cache hits.
        """
        state = self._refresh()
        return deduplicated_count_batch(
            queries,
            self.counter,
            lambda key: self._aggregate_get(key, state.version),
            lambda key, value: self._aggregate_put(key, value, state.version),
            lambda query: self._count_uncached(query, state)[0],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        index = ",".join(sorted(self._features)) or "off"
        return (
            f"QueryEngine(table={self.name!r}, rows={self.num_rows}, "
            f"cache_size={self._cache_size}, index={index}, "
            f"partitions={self.partitions}, version={self.data_version})"
        )
