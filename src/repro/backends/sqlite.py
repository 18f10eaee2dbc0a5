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
supplies the SQL primitives.

Threading: a backend and its :meth:`sibling` views (one per service
session) share one state record — the connection
(``check_same_thread=False``), its lock, schema, row count, data version
and sample memo — and keep private operation counters.  An operation
reads the record under one hold of its lock (an aggregate through the
front end's ``_reading()`` hook), so no answer straddles an ingest.

A sample is not SQL: :meth:`SQLiteBackend.sample` reads the sampled rows
into an in-memory table, answered by the memory engine like every
backend's sample; the database gains no table for it.
"""

from __future__ import annotations

import copy
import sqlite3
import threading
from typing import Any, ContextManager, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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


class _Shared:
    """The state every sibling of one table shares, read under ``lock``.

    The connection, the schema a query binds to, the row count, the data
    version and the sample memo (per ``(fraction, seed)``).  Each mutation
    that changes the rows bumps ``version`` and replaces ``samples`` under
    ``lock``; an operation holds ``lock`` from reading the record through
    its answer, so the record is also the state it captures (a span
    reports one shard).
    """

    __slots__ = ("connection", "lock", "schema", "num_rows", "version", "samples")
    partitions = 1

    def __init__(self, connection: sqlite3.Connection):
        self.connection = connection
        self.lock = threading.Lock()
        self.schema: Dict[str, DataType] = {}
        self.num_rows = 0
        self.version = 1
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
    ):
        self.database = database
        if _connection is None:
            try:
                _connection = sqlite3.connect(database, check_same_thread=False)
            except sqlite3.Error as error:  # pragma: no cover - os-dependent
                raise BackendError(f"cannot open SQLite database {database!r}: {error}")
        self._shared = _Shared(_connection)
        self._owns_connection = True
        # No sibling exists yet, so discovery reads the connection unlocked.
        self._table_name = self._resolve_table_name(table_name)
        self._shared.schema = self._load_schema()
        if not self._shared.schema:
            raise BackendError(
                f"table {self._table_name!r} in {database!r} has no columns"
            )
        source = _quote(self._table_name)
        self._shared.num_rows = int(self._fetch(f"SELECT COUNT(*) FROM {source}")[0][0])
        self.counter = OperationCounter()
        self._cache = cache if cache is not None else ResultCache(
            capacity=int(cache_size), name=f"sqlite:{self._table_name}"
        )
        self._cache_aggregates = bool(cache_aggregates)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: Table,
        database: str = ":memory:",
        table_name: Optional[str] = None,
        **options: Any,
    ) -> "SQLiteBackend":
        """Load a column-store table into SQLite and open a backend over it.

        A database file that already holds a table of this name with the
        same columns and row count is reused as it stands (reopening a
        file); a different stored table is refused rather than silently
        served or overwritten.

        Parameters
        ----------
        table:
            The in-memory relation to load.
        database:
            Target database (default: private in-memory).
        table_name:
            Name of the SQL table (defaults to ``table.name``).
        """
        name = table_name or table.name
        connection = sqlite3.connect(database, check_same_thread=False)
        exists = connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?", (name,)
        ).fetchone()
        if not exists:
            dtypes = {
                column: table.column(column).dtype for column in table.column_names
            }
            columns_sql = ", ".join(
                f"{_quote(column)} {_SQL_TYPE_FOR[dtype]}"
                for column, dtype in dtypes.items()
            )
            connection.execute(f"CREATE TABLE {_quote(name)} ({columns_sql})")
            placeholders = ", ".join("?" for _ in dtypes)
            connection.executemany(
                f"INSERT INTO {_quote(name)} VALUES ({placeholders})",
                cls._encoded_rows(table, dtypes),
            )
            connection.execute(f"CREATE TABLE IF NOT EXISTS {_quote(_SCHEMA_TABLE)} "
                               "(table_name TEXT, column_name TEXT, dtype TEXT, "
                               "PRIMARY KEY (table_name, column_name))")
            connection.executemany(
                f"INSERT OR REPLACE INTO {_quote(_SCHEMA_TABLE)} VALUES (?, ?, ?)",
                [(name, column, dtype.value) for column, dtype in dtypes.items()],
            )
            connection.commit()
        backend = cls(database, table_name=name, _connection=connection, **options)
        stored = (backend.num_rows, backend.column_names)
        if stored != (table.num_rows, table.column_names):
            backend.close()
            raise BackendError(
                f"table {name!r} in {database!r} does not match the supplied "
                f"table ({stored[0]} rows, columns {stored[1]} vs "
                f"{table.num_rows} rows, columns {table.column_names}); open "
                "the database without a source table to use the stored data"
            )
        return backend

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
        """A backend over the same state record, cache and metrics sink,
        with private operation counters (one per service session); it does
        not own the connection."""
        clone = copy.copy(self)
        clone.counter = OperationCounter()
        clone._owns_connection = False
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
        shared = self._shared
        with shared.lock:
            table = shared.samples.get(key)
            if table is None:
                rowids = self._fetch(f"SELECT rowid FROM {source} ORDER BY rowid")
                positions = uniform_sample_indices(len(rowids), fraction, seed)
                id_list = ", ".join(str(rowids[i][0]) for i in positions.tolist())
                rows = self._fetch(
                    f"SELECT {', '.join(map(_quote, shared.schema))} FROM {source} "
                    f"WHERE rowid IN ({id_list}) ORDER BY rowid"
                )
                table = Table.from_dict(
                    {
                        column: [self._decode_value(dtype, row[i]) for row in rows]
                        for i, (column, dtype) in enumerate(shared.schema.items())
                    },
                    name=f"{self._table_name}_sample",
                    types=shared.schema,
                )
                shared.samples[key] = table
        return QueryEngine(table, cache_size=self._cache.capacity)

    def close(self) -> None:
        """Close the underlying connection (no-op for shared siblings)."""
        if self._owns_connection:
            self._shared.connection.close()

    # -- schema ---------------------------------------------------------------

    def _resolve_table_name(self, table_name: Optional[str]) -> str:
        if table_name:
            return table_name
        rows = self._fetch(
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
            rows = self._fetch(
                f"SELECT column_name, dtype FROM {_quote(_SCHEMA_TABLE)} "
                "WHERE table_name = ?",
                (self._table_name,),
            )
            recorded = {name: DataType(value) for name, value in rows}
        except BackendError:  # no companion table: the declared types alone
            pass
        declared = self._fetch(f"PRAGMA table_info({_quote(self._table_name)})")
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
        return self._shared.num_rows

    @property
    def data_version(self) -> int:
        """Monotonic version of the data, shared by every sibling."""
        return self._shared.version

    # -- SQL plumbing ---------------------------------------------------------

    def _fetch(self, sql: str, parameters: Sequence[Any] = ()) -> List[Tuple]:
        """The rows of one statement; the caller holds the shared lock
        (or, constructing, has no sibling yet)."""
        try:
            return self._shared.connection.execute(sql, parameters).fetchall()
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
        shared = self._shared
        materialised = list(rows)
        if not materialised:
            return shared.version
        reject_unknown_columns(materialised, list(shared.schema))
        encoded: List[Tuple[Any, ...]] = [
            tuple(
                coerce_value(row.get(column), dtype)
                for column, dtype in shared.schema.items()
            )
            for row in materialised
        ]
        placeholders = ", ".join("?" for _ in shared.schema)
        sql = f"INSERT INTO {_quote(self._table_name)} VALUES ({placeholders})"
        with shared.lock:
            try:
                shared.connection.executemany(sql, encoded)
                shared.connection.commit()
            except OverflowError as error:  # an INT past 64 bits, as in the column store
                shared.connection.rollback()
                raise TypeMismatchError(f"a value is out of range: {error}") from error
            except sqlite3.Error as error:
                shared.connection.rollback()
                raise BackendError(
                    f"SQLite ingest into {self._table_name!r} failed: {error}"
                ) from error
            shared.num_rows += len(encoded)
            shared.version += 1
            shared.samples = {}
            version = shared.version
        self._cache.evict_superseded(version)
        return version

    def delete_where(self, query: SDLQuery) -> int:
        """Delete the rows a query selects (one transaction); returns the count.

        A query selecting nothing keeps the version — and every cache
        entry — intact.
        """
        shared = self._shared
        where = _where(bind(query, shared.schema))
        with shared.lock:
            try:
                cursor = shared.connection.execute(
                    f"DELETE FROM {_quote(self._table_name)} WHERE {where}"
                )
                shared.connection.commit()
            except sqlite3.Error as error:
                shared.connection.rollback()
                raise BackendError(
                    f"SQLite delete on {self._table_name!r} failed: {error}"
                ) from error
            deleted = max(0, int(cursor.rowcount))
            if deleted:
                shared.num_rows -= deleted
                shared.version += 1
                shared.samples = {}
            version = shared.version
        if deleted:
            self._cache.evict_superseded(version)
        return deleted

    # -- the uncached primitives (AggregateFrontEnd hooks) --------------------

    def _reading(self) -> ContextManager[Any]:
        """The shared lock: an aggregate's version and statements agree."""
        return self._shared.lock

    def _refresh(self) -> _Shared:
        return self._shared

    def _count(
        self, attribute: None, query: SDLQuery, state: _Shared
    ) -> Tuple[int, str]:
        """``|R(Q)|`` via ``SELECT COUNT(*)`` (the paper's first operation)."""
        self.counter.add(evaluations=1)
        return int(self._fetch(count_query_sql(query, self._table_name))[0][0]), "sql"

    def _median(
        self, attribute: str, query: Optional[SDLQuery], state: _Shared
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
        valid = int(self._fetch(
            f"SELECT COUNT({quoted}) FROM {table} WHERE {where}"
        )[0][0])
        if valid == 0:
            raise EmptyColumnError(f"median of empty selection on {attribute!r}")
        rows = self._fetch(
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
        self, attribute: str, query: Optional[SDLQuery], state: _Shared
    ) -> Tuple[Tuple[Any, Any], str]:
        """Minimum and maximum via ``SELECT MIN(a), MAX(a)``."""
        dtype = self.dtype_of(attribute)
        quoted = _quote(attribute)
        row = self._fetch(
            f"SELECT MIN({quoted}), MAX({quoted}) "
            f"FROM {_quote(self._table_name)} WHERE {_where(query)}"
        )[0]
        if row[0] is None:
            raise EmptyColumnError(f"minimum of empty selection on {attribute!r}")
        return (self._decode_value(dtype, row[0]), self._decode_value(dtype, row[1])), "sql"

    def _frequencies(
        self, attribute: str, query: Optional[SDLQuery], state: _Shared
    ) -> Tuple[Dict[Any, int], str]:
        """Value → count histogram via ``GROUP BY``."""
        dtype = self.dtype_of(attribute)
        quoted = _quote(attribute)
        rows = self._fetch(
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
