"""A SQLite execution backend: Charles as a true SQL front-end.

The original Charles prototype ran on MonetDB; the paper (Section 1) sells
the advisor as "a front-end for SQL systems".  :class:`SQLiteBackend`
makes the reproduction live up to that claim: every operation the advisor
issues — counts over predicates, medians, min/max, value frequencies
(Section 5.1) — is executed by rendering SDL through the existing
:mod:`repro.storage.sql` glue (:func:`~repro.storage.sql.query_to_where`,
:func:`~repro.storage.sql.count_query_sql`) and running the resulting SQL
against a ``sqlite3`` database.

Two construction paths exist:

* :meth:`SQLiteBackend.from_table` loads an in-memory
  :class:`~repro.storage.table.Table` into a (by default in-memory) SQLite
  database — the path the registry's bare ``"sqlite"`` spec takes;
* opening an existing database file (``"sqlite:///path.db#table"``), in
  which case the schema is discovered from a companion metadata table
  written by :meth:`from_table`, or inferred from SQLite's declared column
  types.

Value encoding follows the column store: dates are stored as proleptic
Gregorian ordinals (``INTEGER``), booleans as 0/1; literals inside
rendered predicates are encoded the same way and results are decoded
back, so counts, medians and frequencies are **identical** to
:class:`~repro.storage.engine.QueryEngine` (benchmark E13 and the parity
tests assert this bit-for-bit on whole advise runs).

Aggregate results are cached in a shared
:class:`~repro.storage.cache.ResultCache` under the same
``count::<key>`` / ``median:<attr>:<key>`` keys the memory
engine uses, so the service layer's per-table cache works unchanged.  The
connection is guarded by a lock (``check_same_thread=False``), and
:meth:`sibling` spawns per-session views sharing the connection, schema
and cache while keeping private operation counters.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    BackendError,
    EmptyColumnError,
    TypeMismatchError,
    UnknownColumnError,
)
from repro.sdl.predicates import (
    ExclusionPredicate,
    Predicate,
    RangePredicate,
    SetPredicate,
)
from repro.sdl.query import SDLQuery
from repro.storage.cache import ResultCache
from repro.storage.engine import (
    OperationCounter,
    aggregate_key,
    deduplicated_count_batch,
)
from repro.storage.sql import count_query_sql, query_to_where
from repro.storage.table import Table, reject_unknown_columns
from repro.storage.types import (
    DataType,
    date_to_ordinal,
    is_missing,
    ordinal_to_date,
)

__all__ = ["SQLiteBackend"]

#: Companion table recording logical column types, so a database created
#: by :meth:`SQLiteBackend.from_table` reopens with exact dtypes.
_SCHEMA_TABLE = "_charles_schema"

#: Process-unique suffixes for unseeded sample tables.
_SAMPLE_ID_COUNTER = itertools.count()

_SQL_TYPE_FOR = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.DATE: "INTEGER",
    DataType.STRING: "TEXT",
    DataType.BOOL: "INTEGER",
}

_DTYPE_FOR_DECL = {
    "INTEGER": DataType.INT,
    "INT": DataType.INT,
    "BIGINT": DataType.INT,
    "REAL": DataType.FLOAT,
    "FLOAT": DataType.FLOAT,
    "DOUBLE": DataType.FLOAT,
    "NUMERIC": DataType.FLOAT,
    "TEXT": DataType.STRING,
    "VARCHAR": DataType.STRING,
    "BOOLEAN": DataType.BOOL,
    "DATE": DataType.DATE,
}


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


class _LiveState:
    """Row count and data version shared by every sibling of one table.

    Siblings share the connection and the cache; they must also share the
    mutation bookkeeping, or a session could keep serving the pre-ingest
    cardinality (and stale cache tags) after another session ingested.
    All mutations happen under the backend's connection lock.
    """

    __slots__ = ("version", "num_rows")

    def __init__(self, num_rows: int):
        self.version = 1
        self.num_rows = int(num_rows)


class SQLiteBackend:
    """Executes the advisor's operations against a ``sqlite3`` database.

    Parameters
    ----------
    database:
        Path of the database file, or ``":memory:"``.
    table_name:
        Relation to query; defaults to the single user table of the
        database (excluding the schema companion), error when ambiguous.
    cache:
        Optional shared :class:`~repro.storage.cache.ResultCache` for
        aggregate results (the service layer passes its per-table cache).
    cache_size:
        Capacity of the private cache built when ``cache`` is omitted.
    cache_aggregates:
        Cache count/median/min-max results keyed by the query's
        :attr:`~repro.sdl.query.SDLQuery.key` (the service layer
        turns this on; off by default to keep operation accounting exact).
    """

    _SAMPLE_IDS = _SAMPLE_ID_COUNTER

    def __init__(
        self,
        database: str = ":memory:",
        table_name: Optional[str] = None,
        cache: Optional[ResultCache] = None,
        cache_size: int = 256,
        cache_aggregates: bool = False,
        _connection: Optional[sqlite3.Connection] = None,
        _lock: Optional[threading.Lock] = None,
        _dtypes: Optional[Dict[str, DataType]] = None,
        _owns_connection: Optional[bool] = None,
        _live: Optional[_LiveState] = None,
    ):
        self.database = database
        if _connection is not None:
            self._connection = _connection
            self._owns_connection = bool(_owns_connection)
        else:
            try:
                self._connection = sqlite3.connect(
                    database, check_same_thread=False
                )
            except sqlite3.Error as error:  # pragma: no cover - os-dependent
                raise BackendError(f"cannot open SQLite database {database!r}: {error}")
            self._owns_connection = True
        self._lock = _lock if _lock is not None else threading.Lock()
        # Set by sample(): the backend's table is its own, dropped on close().
        self._owns_table = False
        self._table_name = self._resolve_table_name(table_name)
        self._dtypes = dict(_dtypes) if _dtypes is not None else self._load_schema()
        if not self._dtypes:
            raise BackendError(
                f"table {self._table_name!r} in {database!r} has no columns"
            )
        self._columns = list(self._dtypes)
        self.counter = OperationCounter()
        self._cache = cache if cache is not None else ResultCache(
            capacity=int(cache_size), name=f"sqlite:{self._table_name}"
        )
        self._cache_aggregates = bool(cache_aggregates)
        self._live = _live if _live is not None else _LiveState(
            int(
                self._execute(
                    f"SELECT COUNT(*) FROM {_quote(self._table_name)}"
                )[0][0]
            )
        )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: Table,
        database: str = ":memory:",
        table_name: Optional[str] = None,
        if_exists: str = "fail",
        **options: Any,
    ) -> "SQLiteBackend":
        """Load a column-store table into SQLite and open a backend over it.

        Parameters
        ----------
        table:
            The in-memory relation to load.
        database:
            Target database (default: private in-memory).
        table_name:
            Name of the SQL table (defaults to ``table.name``).
        if_exists:
            ``"fail"`` (default), ``"replace"`` or ``"skip"`` (reuse the
            already-loaded table, e.g. when reopening a file).
        """
        name = table_name or table.name
        connection = sqlite3.connect(database, check_same_thread=False)
        dtypes = {
            column: table.column(column).dtype for column in table.column_names
        }
        cursor = connection.cursor()
        exists = cursor.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?", (name,)
        ).fetchone()
        if exists and if_exists == "fail":
            connection.close()
            raise BackendError(
                f"table {name!r} already exists in {database!r}; "
                "pass if_exists='replace' or 'skip'"
            )
        if exists and if_exists == "skip":
            # Reuse is only safe when the stored table plausibly holds the
            # same data; otherwise the caller's table would be silently
            # ignored in favour of stale contents.
            stored_columns = [
                row[1]
                for row in cursor.execute(f"PRAGMA table_info({_quote(name)})")
            ]
            stored_rows = cursor.execute(
                f"SELECT COUNT(*) FROM {_quote(name)}"
            ).fetchone()[0]
            if stored_columns != table.column_names or stored_rows != table.num_rows:
                connection.close()
                raise BackendError(
                    f"table {name!r} in {database!r} does not match the "
                    f"supplied table ({stored_rows} rows, columns "
                    f"{stored_columns} vs {table.num_rows} rows, columns "
                    f"{table.column_names}); pass if_exists='replace' to "
                    "reload it, or open the database without a source table "
                    "to use the stored data"
                )
        if not exists or if_exists == "replace":
            cursor.execute(f"DROP TABLE IF EXISTS {_quote(name)}")
            columns_sql = ", ".join(
                f"{_quote(column)} {_SQL_TYPE_FOR[dtype]}"
                for column, dtype in dtypes.items()
            )
            cursor.execute(f"CREATE TABLE {_quote(name)} ({columns_sql})")
            placeholders = ", ".join("?" for _ in dtypes)
            rows = cls._encoded_rows(table, dtypes)
            cursor.executemany(
                f"INSERT INTO {_quote(name)} VALUES ({placeholders})", rows
            )
            cursor.execute(f"CREATE TABLE IF NOT EXISTS {_quote(_SCHEMA_TABLE)} "
                           "(table_name TEXT, column_name TEXT, dtype TEXT, "
                           "PRIMARY KEY (table_name, column_name))")
            cursor.executemany(
                f"INSERT OR REPLACE INTO {_quote(_SCHEMA_TABLE)} VALUES (?, ?, ?)",
                [(name, column, dtype.value) for column, dtype in dtypes.items()],
            )
            connection.commit()
        return cls(
            database,
            table_name=name,
            _connection=connection,
            _dtypes=dtypes,
            _owns_connection=True,
            **options,
        )

    @staticmethod
    def _encoded_rows(table: Table, dtypes: Dict[str, DataType]) -> Iterable[Tuple[Any, ...]]:
        """SQL-ready row tuples, each column decoded once and the lists zipped."""
        columns: List[List[Any]] = []
        for name in dtypes:
            column = table.column(name)
            if column.dtype is DataType.DATE:  # the stored ordinal, not a date
                ordinals = column.to_numpy().astype(object)
                ordinals[~column.valid_mask()] = None
                columns.append(ordinals.tolist())
            else:  # sqlite3 stores a bool as the integer 0 or 1
                columns.append(column.values_list())
        return zip(*columns)

    def sibling(self) -> "SQLiteBackend":
        """A backend over the same connection, schema and cache, with
        private operation counters (one per service session)."""
        return SQLiteBackend(
            self.database,
            table_name=self._table_name,
            cache=self._cache,
            cache_aggregates=self._cache_aggregates,
            _connection=self._connection,
            _lock=self._lock,
            _dtypes=self._dtypes,
            _live=self._live,
        )

    def sample(self, fraction: float, seed: Optional[int] = None) -> "SQLiteBackend":
        """A backend over a uniform sample, materialised as a SQLite table.

        Row positions are drawn with the same
        :func:`~repro.storage.sampling.uniform_sample_indices` primitive
        the memory engine uses, then copied into a sibling table inside
        the same database, so sampled execution stays in SQL.  The table
        belongs to the returned backend: :meth:`close` drops it.
        """
        from repro.storage.sampling import uniform_sample_indices

        rowids = [row[0] for row in self._execute(
            f"SELECT rowid FROM {_quote(self._table_name)} ORDER BY rowid"
        )]
        positions = uniform_sample_indices(
            len(rowids), fraction=fraction, seed=seed
        )
        chosen = [int(rowids[int(i)]) for i in positions]
        # Seeded samples are deterministic, so their table can be reused;
        # unseeded ones get a process-unique suffix — two live unseeded
        # samples must never drop and recreate each other's table.
        seed_part = seed if seed is not None else f"u{next(self._SAMPLE_IDS)}"
        suffix = f"{int(round(fraction * 1_000_000))}_{seed_part}"
        sample_name = f"{self._table_name}_sample_{suffix}"
        id_list = ", ".join(str(rowid) for rowid in chosen)
        with self._lock:
            cursor = self._connection.cursor()
            cursor.execute(f"DROP TABLE IF EXISTS {_quote(sample_name)}")
            cursor.execute(
                f"CREATE TABLE {_quote(sample_name)} AS "
                f"SELECT * FROM {_quote(self._table_name)} "
                f"WHERE rowid IN ({id_list}) ORDER BY rowid"
            )
            self._connection.commit()
        sampled = SQLiteBackend(
            self.database,
            table_name=sample_name,
            cache_size=self._cache.capacity,
            _connection=self._connection,
            _lock=self._lock,
            _dtypes=self._dtypes,
        )
        sampled._owns_table = True
        return sampled

    def close(self) -> None:
        """Close the underlying connection (no-op for shared siblings); a
        sample drops its table."""
        if self._owns_table:
            with self._lock:
                self._connection.execute(
                    f"DROP TABLE IF EXISTS {_quote(self._table_name)}"
                )
                self._connection.commit()
        if self._owns_connection:
            self._connection.close()

    # -- schema ---------------------------------------------------------------

    def _resolve_table_name(self, table_name: Optional[str]) -> str:
        if table_name:
            return table_name
        rows = self._execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name != ?",
            (_SCHEMA_TABLE,),
        )
        names = [row[0] for row in rows]
        if len(names) == 1:
            return names[0]
        if not names:
            raise BackendError(f"database {self.database!r} contains no table")
        raise BackendError(
            f"database {self.database!r} contains several tables "
            f"({', '.join(sorted(names))}); name one in the spec fragment, "
            "e.g. sqlite:///path.db#table"
        )

    def _load_schema(self) -> Dict[str, DataType]:
        recorded: Dict[str, DataType] = {}
        try:
            rows = self._execute(
                f"SELECT column_name, dtype FROM {_quote(_SCHEMA_TABLE)} "
                "WHERE table_name = ?",
                (self._table_name,),
            )
            recorded = {name: DataType(value) for name, value in rows}
        except sqlite3.Error:
            pass
        declared = self._execute(f"PRAGMA table_info({_quote(self._table_name)})")
        dtypes: Dict[str, DataType] = {}
        for _, name, decltype, *_rest in declared:
            if name in recorded:
                dtypes[name] = recorded[name]
            else:
                key = (decltype or "").split("(")[0].strip().upper()
                dtypes[name] = _DTYPE_FOR_DECL.get(key, DataType.STRING)
        return dtypes

    @property
    def name(self) -> str:
        return self._table_name

    @property
    def table_name(self) -> str:
        return self._table_name

    @property
    def num_rows(self) -> int:
        return self._live.num_rows

    @property
    def data_version(self) -> int:
        """Monotonic version of the data, shared by every sibling."""
        return self._live.version

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def dtype_of(self, attribute: str) -> DataType:
        dtype = self._dtypes.get(attribute)
        if dtype is None:
            raise UnknownColumnError(attribute, tuple(self._columns))
        return dtype

    def is_numeric(self, attribute: str) -> bool:
        return self.dtype_of(attribute).is_numeric

    # -- SQL plumbing ---------------------------------------------------------

    def _execute(self, sql: str, parameters: Sequence[Any] = ()) -> List[Tuple]:
        with self._lock:
            try:
                return self._connection.execute(sql, parameters).fetchall()
            except sqlite3.Error as error:
                raise BackendError(f"SQLite error for {sql!r}: {error}") from error

    def _encode_literal(self, dtype: DataType, value: Any) -> Any:
        if is_missing(value):
            return None
        if dtype is DataType.DATE and not isinstance(value, (int, float)):
            return date_to_ordinal(value)
        if dtype is DataType.BOOL and isinstance(value, bool):
            return int(value)
        return value

    def _encode_predicate(self, predicate: Predicate) -> Predicate:
        dtype = self.dtype_of(predicate.attribute)
        if dtype not in (DataType.DATE, DataType.BOOL):
            return predicate
        if isinstance(predicate, RangePredicate):
            return RangePredicate(
                predicate.attribute,
                low=self._encode_literal(dtype, predicate.low),
                high=self._encode_literal(dtype, predicate.high),
                include_low=predicate.include_low,
                include_high=predicate.include_high,
            )
        if isinstance(predicate, SetPredicate):
            return SetPredicate(
                predicate.attribute,
                frozenset(self._encode_literal(dtype, v) for v in predicate.values),
            )
        if isinstance(predicate, ExclusionPredicate):
            return ExclusionPredicate(
                predicate.attribute,
                frozenset(self._encode_literal(dtype, v) for v in predicate.values),
            )
        return predicate

    def _encoded_query(self, query: SDLQuery) -> SDLQuery:
        """Validate the attributes and encode date/bool literals for SQLite."""
        for attribute in query.attributes:
            if attribute not in self._dtypes:
                raise UnknownColumnError(attribute, tuple(self._columns))
        return SDLQuery(
            self._encode_predicate(p) if p.is_constrained else p
            for p in query.predicates
        )

    def _rendered_where(self, query: Optional[SDLQuery]) -> str:
        if query is None:
            return "TRUE"
        return query_to_where(self._encoded_query(query))

    def _decode_value(self, dtype: DataType, value: Any) -> Any:
        if value is None:
            return None
        if dtype is DataType.DATE:
            return ordinal_to_date(int(value))
        if dtype is DataType.BOOL:
            return bool(value)
        if dtype is DataType.INT:
            return int(value)
        return value

    # -- live mutation --------------------------------------------------------

    def _encode_cell(self, dtype: DataType, value: Any) -> Any:
        if is_missing(value):
            return None
        if dtype is DataType.BOOL:
            return int(bool(value))
        return self._encode_literal(dtype, value)

    def ingest(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Append row mappings in one transaction; returns the new version.

        Matches the column store's semantics: unknown columns are
        rejected, missing keys become NULL, dates and booleans are stored
        with the same encoding :meth:`from_table` uses.  Cache entries of
        superseded versions are evicted surgically; an empty batch is a
        no-op.
        """
        materialised = list(rows)
        if not materialised:
            return self._live.version
        reject_unknown_columns(materialised, self._columns)
        encoded: List[Tuple[Any, ...]] = [
            tuple(
                self._encode_cell(dtype, row.get(column))
                for column, dtype in self._dtypes.items()
            )
            for row in materialised
        ]
        placeholders = ", ".join("?" for _ in self._dtypes)
        sql = f"INSERT INTO {_quote(self._table_name)} VALUES ({placeholders})"
        with self._lock:
            try:
                self._connection.executemany(sql, encoded)
                self._connection.commit()
            except sqlite3.Error as error:
                self._connection.rollback()
                raise BackendError(
                    f"SQLite ingest into {self._table_name!r} failed: {error}"
                ) from error
            self._live.num_rows += len(encoded)
            self._live.version += 1
            version = self._live.version
        self._cache.evict_superseded(version)
        return version

    def delete_where(self, query: SDLQuery) -> int:
        """Delete the rows a query selects (one transaction); returns the count.

        A query selecting nothing keeps the version — and every cache
        entry — intact.
        """
        where = self._rendered_where(query)
        with self._lock:
            try:
                cursor = self._connection.execute(
                    f"DELETE FROM {_quote(self._table_name)} WHERE {where}"
                )
                self._connection.commit()
            except sqlite3.Error as error:
                self._connection.rollback()
                raise BackendError(
                    f"SQLite delete on {self._table_name!r} failed: {error}"
                ) from error
            deleted = max(0, int(cursor.rowcount))
            if deleted:
                self._live.num_rows -= deleted
                self._live.version += 1
            version = self._live.version
        if deleted:
            self._cache.evict_superseded(version)
        return deleted

    # -- aggregate cache ------------------------------------------------------

    def _aggregate_get(self, key: str) -> Optional[Any]:
        if not self._cache_aggregates:
            return None
        value = self._cache.get(key, version=self._live.version)
        if value is not None:
            self.counter.add(aggregate_hits=1)
        return value

    def _aggregate_put(self, key: str, value: Any) -> None:
        if self._cache_aggregates:
            self._cache.put(key, value, version=self._live.version)

    # -- the two back-end operations (plus helpers) ---------------------------

    def count(self, query: SDLQuery) -> int:
        """``|R(Q)|`` via ``SELECT COUNT(*)`` (the paper's first operation)."""
        self.counter.add(count_calls=1)
        key = "count::" + query.key
        cached = self._aggregate_get(key)
        if cached is not None:
            return cached
        value = self._count_uncached(query)
        self._aggregate_put(key, value)
        return value

    def _count_uncached(self, query: SDLQuery) -> int:
        self.counter.add(evaluations=1)
        sql = count_query_sql(self._encoded_query(query), self._table_name)
        return int(self._execute(sql)[0][0])

    def median(self, attribute: str, query: Optional[SDLQuery] = None) -> Any:
        """Arithmetic median via ordered ``LIMIT/OFFSET`` selection.

        Matches the column store's semantics exactly: the mean of the two
        middle values for even cardinalities, decoded per dtype (integral
        INT medians stay ``int``; DATE medians round down to a date).
        """
        self.counter.add(median_calls=1)
        key = aggregate_key("median", attribute, query)
        cached = self._aggregate_get(key)
        if cached is not None:
            return cached
        value = self._median_uncached(attribute, query)
        self._aggregate_put(key, value)
        return value

    def _median_uncached(self, attribute: str, query: Optional[SDLQuery]) -> Any:
        dtype = self.dtype_of(attribute)
        if not dtype.is_numeric:
            raise TypeMismatchError(
                f"arithmetic median undefined for nominal column {attribute!r}"
            )
        where = self._rendered_where(query)
        quoted = _quote(attribute)
        table = _quote(self._table_name)
        valid = int(self._execute(
            f"SELECT COUNT({quoted}) FROM {table} WHERE {where}"
        )[0][0])
        if valid == 0:
            raise EmptyColumnError(f"median of empty selection on {attribute!r}")
        rows = self._execute(
            f"SELECT AVG(v) FROM (SELECT {quoted} AS v FROM {table} "
            f"WHERE {where} AND {quoted} IS NOT NULL "
            f"ORDER BY {quoted} LIMIT {2 - valid % 2} OFFSET {(valid - 1) // 2})"
        )
        return self._decode_median(dtype, float(rows[0][0]))

    def _decode_median(self, dtype: DataType, value: float) -> Any:
        if dtype is DataType.DATE:
            return ordinal_to_date(int(value))
        if dtype is DataType.INT and value.is_integer():
            return int(value)
        return value

    def minmax(
        self, attribute: str, query: Optional[SDLQuery] = None
    ) -> Tuple[Any, Any]:
        """Minimum and maximum via ``SELECT MIN(a), MAX(a)``."""
        self.counter.add(minmax_calls=1)
        dtype = self.dtype_of(attribute)
        key = aggregate_key("minmax", attribute, query)
        cached = self._aggregate_get(key)
        if cached is not None:
            return cached
        where = self._rendered_where(query)
        quoted = _quote(attribute)
        row = self._execute(
            f"SELECT MIN({quoted}), MAX({quoted}) "
            f"FROM {_quote(self._table_name)} WHERE {where}"
        )[0]
        if row[0] is None:
            raise EmptyColumnError(f"minimum of empty selection on {attribute!r}")
        value = (self._decode_value(dtype, row[0]), self._decode_value(dtype, row[1]))
        self._aggregate_put(key, value)
        return value

    def value_frequencies(
        self, attribute: str, query: Optional[SDLQuery] = None
    ) -> Dict[Any, int]:
        """Value → count histogram via ``GROUP BY``."""
        self.counter.add(frequency_calls=1)
        dtype = self.dtype_of(attribute)
        where = self._rendered_where(query)
        quoted = _quote(attribute)
        rows = self._execute(
            f"SELECT {quoted}, COUNT(*) FROM {_quote(self._table_name)} "
            f"WHERE ({where}) AND {quoted} IS NOT NULL GROUP BY {quoted}"
        )
        return {self._decode_value(dtype, value): int(count) for value, count in rows}

    # -- batched passes -------------------------------------------------------

    def count_batch(self, queries: Sequence[SDLQuery]) -> Tuple[int, ...]:
        """Cardinalities of many queries in one logical pass.

        Deduplication and accounting run through the shared
        :func:`~repro.storage.engine.deduplicated_count_batch` skeleton,
        so traces and service statistics are bit-for-bit comparable with
        the columnar engine's.
        """
        return deduplicated_count_batch(
            queries,
            self.counter,
            self._aggregate_get,
            self._aggregate_put,
            self._count_uncached,
        )

    # -- statistics -----------------------------------------------------------

    @property
    def cache(self) -> ResultCache:
        """The (possibly shared) aggregate cache backing this backend."""
        return self._cache

    def stats(self) -> Dict[str, Any]:
        """Backend statistics: identity, operation tallies and cache traffic."""
        return {
            "backend": "sqlite",
            "database": self.database,
            "table": self._table_name,
            "rows": self.num_rows,
            "data_version": self.data_version,
            "operations": self.counter.snapshot(),
            "cache": self._cache.stats().snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SQLiteBackend(database={self.database!r}, "
            f"table={self._table_name!r}, rows={self.num_rows}, "
            f"version={self.data_version})"
        )
