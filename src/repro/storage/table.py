"""The single-relation table of the storage substrate.

The paper's first restriction (Section 2) is that the dataset lives in a
single relation.  :class:`Table` is that relation: a named, ordered
collection of equally-long typed columns, with constructors from Python
dictionaries, row mappings, and CSV files (via
:mod:`repro.storage.csv_loader`).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchemaError, UnknownColumnError
from repro.storage.column import Column, build_column
from repro.storage.types import DataType, infer_collection_type

__all__ = ["Table", "reject_unknown_columns"]

#: One read-only schema per column layout, shared by a table's shards and
#: versions: a query bound to one is bound to all (bind keeps it per schema).
_SCHEMAS: Dict[Tuple[Tuple[str, DataType], ...], Mapping[str, DataType]] = {}


def reject_unknown_columns(
    rows: Sequence[Mapping[str, Any]], columns: Sequence[str]
) -> None:
    """Raise :class:`SchemaError` when any row names a column not in the schema.

    The one validation rule every ingest path applies — the in-memory
    :meth:`Table.append_rows` and the SQLite backend's ``ingest`` — so
    error behavior stays identical across backends: the *whole batch* is
    scanned and every offending column is reported.
    """
    known = set(columns)
    unknown = sorted({key for row in rows for key in row if key not in known})
    if unknown:
        raise SchemaError(
            f"appended rows name unknown column(s) {unknown}; "
            f"the table has: {list(columns)}"
        )


class Table:
    """An immutable, in-memory, columnar relation.

    Parameters
    ----------
    name:
        Relation name, used when generating SQL and in reports.
    columns:
        The column objects, all of identical length.
    """

    def __init__(self, name: str, columns: Sequence[Column]):
        if not columns:
            raise SchemaError("a table requires at least one column")
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise SchemaError(f"columns have inconsistent lengths: {sorted(lengths)}")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {duplicates}")
        self.name = name
        self._columns: Dict[str, Column] = {column.name: column for column in columns}
        self._order: List[str] = names
        self._num_rows = lengths.pop()
        layout = tuple((column.name, column.dtype) for column in columns)
        self._schema = _SCHEMAS.get(layout) or _SCHEMAS.setdefault(
            layout, MappingProxyType(dict(layout))
        )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Iterable[Any]],
        name: str = "table",
        types: Optional[Mapping[str, DataType]] = None,
    ) -> "Table":
        """Build a table from ``column name -> values``.

        Types are inferred per column unless overridden through ``types``.
        Values may be any iterable, including NumPy arrays.
        """
        types = dict(types or {})
        columns = []
        for column_name, values in data.items():
            # Read each column once (it may be a one-shot iterable); a NumPy
            # array goes to the column as it is.
            if not isinstance(values, (list, tuple, np.ndarray)):
                values = list(values)
            dtype = types.get(column_name) or infer_collection_type(values)
            columns.append(build_column(column_name, values, dtype))
        return cls(name, columns)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Mapping[str, Any]],
        name: str = "table",
    ) -> "Table":
        """Build a table from an iterable of row mappings.

        Columns come in the order of first appearance across the rows.
        Missing keys become missing values.
        """
        materialised = list(rows)
        if not materialised:
            raise SchemaError("cannot build a table from zero rows")
        columns: List[str] = []
        for row in materialised:
            for key in row:
                if key not in columns:
                    columns.append(key)
        data = {
            column: [row.get(column) for row in materialised] for column in columns
        }
        return cls.from_dict(data, name=name)

    # -- schema ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def column_names(self) -> List[str]:
        return list(self._order)

    def schema(self) -> Mapping[str, DataType]:
        """Read-only mapping of column name to logical data type, in column order."""
        return self._schema

    def column(self, name: str) -> Column:
        """The column object for ``name``.

        Raises
        ------
        UnknownColumnError
            If the table has no such column.
        """
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumnError(name, tuple(self._order)) from None

    def dtype(self, name: str) -> DataType:
        return self.column(name).dtype

    # -- data access -----------------------------------------------------------

    def __len__(self) -> int:
        return self._num_rows

    def row(self, index: int) -> Dict[str, Any]:
        """Decoded values of one row as a mapping."""
        if index < 0:
            index += self._num_rows
        if not 0 <= index < self._num_rows:
            raise IndexError(f"row index {index} out of range for {self._num_rows} rows")
        return {name: self._columns[name].value_at(index) for name in self._order}

    def iter_rows(self) -> Iterator[Dict[str, Any]]:
        """Iterate over decoded rows (slow path, meant for tests and export)."""
        for index in range(self._num_rows):
            yield self.row(index)

    def to_dict(self) -> Dict[str, List[Any]]:
        """Decoded values per column (slow path)."""
        return {name: self._columns[name].values_list() for name in self._order}

    # -- derivation --------------------------------------------------------------

    def filter(self, mask: np.ndarray, name: Optional[str] = None) -> "Table":
        """New table keeping the rows where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self._num_rows:
            raise SchemaError(
                f"mask length {mask.shape[0]} does not match table length {self._num_rows}"
            )
        columns = [self._columns[n].filter(mask) for n in self._order]
        return Table(name or self.name, columns)

    def take(self, indices: Sequence[int], name: Optional[str] = None) -> "Table":
        """New table containing the rows at the given positions, in order."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self._num_rows):
            raise SchemaError("row indices out of range")
        columns = [self._columns[n].take(indices) for n in self._order]
        return Table(name or self.name, columns)

    def slice_rows(
        self, start: int, stop: int, name: Optional[str] = None
    ) -> "Table":
        """New table over the contiguous row range ``[start, stop)``.

        Columns are zero-copy basic slices of the source arrays (safe
        because tables are immutable); row-range partitioning shards
        tables this way without duplicating the relation.
        """
        if not 0 <= start <= stop <= self._num_rows:
            raise SchemaError(
                f"row range [{start}, {stop}) out of bounds for "
                f"{self._num_rows} rows"
            )
        columns = [self._columns[n].slice_rows(start, stop) for n in self._order]
        return Table(name or self.name, columns)

    def append_rows(self, rows: Iterable[Mapping[str, Any]]) -> "Table":
        """New table with the given row mappings appended (copy-on-write).

        The schema is fixed: rows naming unknown columns are rejected,
        missing keys become missing values, and batch values are coerced
        to the existing column types.  The source table — and every
        snapshot or shard derived from it — is left untouched; this is
        the append primitive :class:`repro.live.VersionedTable` versions.
        """
        materialised = list(rows)
        if not materialised:
            return self
        reject_unknown_columns(materialised, self._order)
        columns = [
            self._columns[name].append_values(
                [row.get(name) for row in materialised]
            )
            for name in self._order
        ]
        return Table(self.name, columns)

    # -- display ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self._num_rows}, "
            f"columns={self._order})"
        )

    def describe(self) -> str:
        """Short multi-line schema description used by the CLI."""
        lines = [f"table {self.name!r}: {self._num_rows} rows"]
        for name in self._order:
            column = self._columns[name]
            lines.append(f"  {name:<24} {column.dtype.value:<8} "
                         f"distinct={column.distinct_count()}")
        return "\n".join(lines)
