"""CSV ingestion with type inference.

The demo proposal targets "a few domain-specific databases" that a user
would typically hold as delimited files.  This loader turns a CSV file (or
any text stream) into a :class:`~repro.storage.table.Table`, inferring a
logical type per column unless the caller overrides it.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Optional, TextIO, Union

from repro.errors import CSVFormatError
from repro.storage.table import Table
from repro.storage.types import DataType

__all__ = ["load_csv"]


def load_csv(
    path: Union[str, Path],
    name: Optional[str] = None,
    types: Optional[Mapping[str, DataType]] = None,
    delimiter: str = ",",
    limit: Optional[int] = None,
) -> Table:
    """Load a CSV file into a table.

    Parameters
    ----------
    path:
        Path of the CSV file; the first row must contain column names.
    name:
        Table name; defaults to the file stem.
    types:
        Optional per-column type overrides (inferred otherwise).
    delimiter:
        Field delimiter.
    limit:
        Maximum number of data rows to read.
    """
    path = Path(path)
    if not path.exists():
        raise CSVFormatError(f"CSV file not found: {path}")
    with path.open("r", newline="", encoding="utf-8") as handle:
        return _load_from_stream(
            handle, name=name or path.stem, types=types, delimiter=delimiter, limit=limit
        )


def _load_from_stream(
    stream: TextIO,
    name: str,
    types: Optional[Mapping[str, DataType]],
    delimiter: str,
    limit: Optional[int],
) -> Table:
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise CSVFormatError("CSV input is empty (no header row)") from None
    header = [column.strip() for column in header]
    if any(not column for column in header):
        raise CSVFormatError("CSV header contains an empty column name")
    if len(set(header)) != len(header):
        raise CSVFormatError("CSV header contains duplicate column names")

    data: dict[str, list] = {column: [] for column in header}
    for row_number, row in enumerate(reader, start=2):
        if limit is not None and len(data[header[0]]) >= limit:
            break
        if not row or all(field.strip() == "" for field in row):
            continue
        if len(row) != len(header):
            raise CSVFormatError(
                f"row {row_number} has {len(row)} fields, expected {len(header)}"
            )
        for column, field in zip(header, row):
            data[column].append(field)

    if not data[header[0]]:
        raise CSVFormatError("CSV input contains a header but no data rows")
    return Table.from_dict(data, name=name, types=types)
