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
Gregorian ordinals (``INTEGER``), booleans as 0/1; a query is bound to
the schema before it is rendered (:func:`~repro.storage.expression.bind`,
the column store's one literal rule) and results are decoded back, so
counts, medians and frequencies are **identical** to
:class:`~repro.storage.engine.QueryEngine` (benchmark E13 and the parity
tests assert this bit-for-bit on whole advise runs).

The front half of every aggregate — tally, bind, key, the shared
:class:`~repro.storage.cache.ResultCache` of aggregate results, batch
deduplication, latency reporting — is the memory engine's own
:class:`~repro.storage.engine.AggregateFrontEnd`, so keys, tallies, the
service's per-table cache and its metrics work unchanged; this module
supplies the SQL primitives.  The connection is guarded by a lock
(``check_same_thread=False``), and :meth:`sibling` spawns per-session
views sharing the connection, schema and cache while keeping private
operation counters.

A sample is not SQL: :meth:`SQLiteBackend.sample` reads the sampled rows
into an in-memory table, answered by the memory engine like every
backend's sample; the database gains no table for it.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import BackendError, EmptyColumnError, TypeMismatchError
from repro.sdl.query import SDLQuery
from repro.storage.cache import ResultCache
from repro.storage.engine import AggregateFrontEnd, OperationCounter, QueryEngine
from repro.storage.expression import bind
from repro.storage.sql import count_query_sql, query_to_where
from repro.storage.table import Table, reject_unknown_columns
from repro.storage.types import DataType, coerce_value, ordinal_to_date

__all__ = ["SQLiteBackend"]

#: Companion table recording logical column types, so a database created
#: by :meth:`SQLiteBackend.from_table` reopens with exact dtypes.
_SCHEMA_TABLE = "_charles_schema"

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


def _where(query: Optional[SDLQuery]) -> str:
    """The ``WHERE`` condition of a bound query (``None``: every row)."""
    return "TRUE" if query is None else query_to_where(query)


class _Captured(NamedTuple):
    """What one operation captures: the version its answer is cached at
    and the schema its query binds to (a span reports one shard)."""

    version: int
    schema: Mapping[str, DataType]
    partitions: int = 1


class _LiveState:
    """Row count, data version and samples shared by every sibling of one table.

    Siblings share the connection and the cache; they must also share the
    mutation bookkeeping, or a session could keep serving the pre-ingest
    cardinality (and stale cache tags) after another session ingested.
    All mutations happen under the backend's connection lock; each one
    that changes the rows replaces ``samples`` (per ``(fraction, seed)``).
    """

    __slots__ = ("version", "num_rows", "samples")

    def __init__(self, num_rows: int):
        self.version = 1
        self.num_rows = int(num_rows)
        self.samples: Dict[Tuple[float, int], Table] = {}


class SQLiteBackend(AggregateFrontEnd):
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
        self._table_name = self._resolve_table_name(table_name)
        # Siblings share one schema object: a query binds once per schema.
        self._dtypes = _dtypes if _dtypes is not None else self._load_schema()
        if not self._dtypes:
            raise BackendError(
                f"table {self._table_name!r} in {database!r} has no columns"
            )
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
        """A backend over the same connection, schema, cache and metrics
        sink, with private operation counters (one per service session)."""
        clone = SQLiteBackend(
            self.database,
            table_name=self._table_name,
            cache=self._cache,
            cache_aggregates=self._cache_aggregates,
            _connection=self._connection,
            _lock=self._lock,
            _dtypes=self._dtypes,
            _live=self._live,
        )
        clone._metrics_sink = self._metrics_sink
        return clone

    def sample(self, fraction: float, seed: int) -> QueryEngine:
        """A memory engine over a uniform sample of the current rows.

        The rows at the positions the memory engine's
        :func:`~repro.storage.sampling.uniform_sample_indices` draws are
        read out once per data version and ``(fraction, seed)`` into a
        :class:`~repro.storage.table.Table` that siblings share; a sample
        dies with the last engine over it.
        """
        from repro.storage.sampling import uniform_sample_indices

        key = (float(fraction), int(seed))
        source = _quote(self._table_name)
        with self._lock:
            table = self._live.samples.get(key)
            if table is None:
                rowids = self._fetch(f"SELECT rowid FROM {source} ORDER BY rowid")
                positions = uniform_sample_indices(len(rowids), fraction, seed)
                id_list = ", ".join(str(rowids[i][0]) for i in positions.tolist())
                rows = self._fetch(
                    f"SELECT {', '.join(map(_quote, self._dtypes))} FROM {source} "
                    f"WHERE rowid IN ({id_list}) ORDER BY rowid"
                )
                table = Table.from_dict(
                    {
                        column: [self._decode_value(dtype, row[i]) for row in rows]
                        for i, (column, dtype) in enumerate(self._dtypes.items())
                    },
                    name=f"{self._table_name}_sample",
                    types=self._dtypes,
                )
                self._live.samples[key] = table
        return QueryEngine(table, cache_size=self._cache.capacity)

    def close(self) -> None:
        """Close the underlying connection (no-op for shared siblings)."""
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
    def num_rows(self) -> int:
        return self._live.num_rows

    @property
    def data_version(self) -> int:
        """Monotonic version of the data, shared by every sibling."""
        return self._live.version

    # -- SQL plumbing ---------------------------------------------------------

    def _execute(self, sql: str, parameters: Sequence[Any] = ()) -> List[Tuple]:
        with self._lock:
            return self._fetch(sql, parameters)

    def _fetch(self, sql: str, parameters: Sequence[Any] = ()) -> List[Tuple]:
        """:meth:`_execute` for a caller that holds the connection lock."""
        try:
            return self._connection.execute(sql, parameters).fetchall()
        except sqlite3.Error as error:
            raise BackendError(f"SQLite error for {sql!r}: {error}") from error

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

    def ingest(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Append row mappings in one transaction; returns the new version.

        Matches the column store's semantics: unknown columns are
        rejected, missing keys become NULL, and each cell is coerced by
        the column store's rule (:func:`~repro.storage.types.coerce_value`:
        a value the column cannot hold raises, ``'no'`` is False, a date
        is its ordinal), the encoding :meth:`from_table` writes.  Cache
        entries of superseded versions are evicted surgically; an empty
        batch is a no-op.
        """
        materialised = list(rows)
        if not materialised:
            return self._live.version
        reject_unknown_columns(materialised, list(self._dtypes))
        encoded: List[Tuple[Any, ...]] = [
            tuple(
                coerce_value(row.get(column), dtype)
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
            except OverflowError as error:  # an INT past 64 bits, as in the column store
                self._connection.rollback()
                raise TypeMismatchError(f"a value is out of range: {error}") from error
            except sqlite3.Error as error:
                self._connection.rollback()
                raise BackendError(
                    f"SQLite ingest into {self._table_name!r} failed: {error}"
                ) from error
            self._live.num_rows += len(encoded)
            self._live.version += 1
            self._live.samples = {}
            version = self._live.version
        self._cache.evict_superseded(version)
        return version

    def delete_where(self, query: SDLQuery) -> int:
        """Delete the rows a query selects (one transaction); returns the count.

        A query selecting nothing keeps the version — and every cache
        entry — intact.
        """
        where = _where(bind(query, self._dtypes))
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
                self._live.samples = {}
            version = self._live.version
        if deleted:
            self._cache.evict_superseded(version)
        return deleted

    # -- the uncached primitives (AggregateFrontEnd hooks) --------------------

    def _refresh(self) -> _Captured:
        return _Captured(self._live.version, self._dtypes)

    def _count(
        self, attribute: None, query: SDLQuery, state: _Captured
    ) -> Tuple[int, str]:
        """``|R(Q)|`` via ``SELECT COUNT(*)`` (the paper's first operation)."""
        self.counter.add(evaluations=1)
        return int(self._execute(count_query_sql(query, self._table_name))[0][0]), "sql"

    def _median(
        self, attribute: str, query: Optional[SDLQuery], state: _Captured
    ) -> Tuple[Any, str]:
        """Arithmetic median via ordered ``LIMIT/OFFSET`` selection.

        Matches the column store's semantics exactly: the mean of the two
        middle values for even cardinalities, decoded per dtype (integral
        INT medians stay ``int``; DATE medians round down to a date).
        """
        dtype = self.dtype_of(attribute)
        if not dtype.is_numeric:
            raise TypeMismatchError(
                f"arithmetic median undefined for nominal column {attribute!r}"
            )
        where = _where(query)
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
        median = float(rows[0][0])
        # Decoded like any value, but an INT median between two integers stays a float.
        if dtype is not DataType.INT or median.is_integer():
            median = self._decode_value(dtype, median)
        return median, "sql"

    def _minmax(
        self, attribute: str, query: Optional[SDLQuery], state: _Captured
    ) -> Tuple[Tuple[Any, Any], str]:
        """Minimum and maximum via ``SELECT MIN(a), MAX(a)``."""
        dtype = self.dtype_of(attribute)
        quoted = _quote(attribute)
        row = self._execute(
            f"SELECT MIN({quoted}), MAX({quoted}) "
            f"FROM {_quote(self._table_name)} WHERE {_where(query)}"
        )[0]
        if row[0] is None:
            raise EmptyColumnError(f"minimum of empty selection on {attribute!r}")
        return (self._decode_value(dtype, row[0]), self._decode_value(dtype, row[1])), "sql"

    def _frequencies(
        self, attribute: str, query: Optional[SDLQuery], state: _Captured
    ) -> Tuple[Dict[Any, int], str]:
        """Value → count histogram via ``GROUP BY``."""
        dtype = self.dtype_of(attribute)
        quoted = _quote(attribute)
        rows = self._execute(
            f"SELECT {quoted}, COUNT(*) FROM {_quote(self._table_name)} "
            f"WHERE ({_where(query)}) AND {quoted} IS NOT NULL GROUP BY {quoted}"
        )
        return {self._decode_value(dtype, value): int(count) for value, count in rows}, "sql"

    # -- statistics -----------------------------------------------------------

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
