"""CSV ingestion with type inference.

The demo proposal targets "a few domain-specific databases" that a user
would typically hold as delimited files.  This loader turns a CSV file (or
any text stream) into a :class:`~repro.storage.table.Table`, inferring a
logical type per column.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TextIO, Union

from repro.errors import CSVFormatError
from repro.storage.table import Table

__all__ = ["load_csv"]


def load_csv(path: Union[str, Path]) -> Table:
    """Load a comma-separated file into a table named after the file stem.

    The first row must contain column names; every column's type is
    inferred.
    """
    path = Path(path)
    if not path.exists():
        raise CSVFormatError(f"CSV file not found: {path}")
    with path.open("r", newline="", encoding="utf-8") as handle:
        return _load_from_stream(handle, path.stem)


def _load_from_stream(stream: TextIO, name: str) -> Table:
    reader = csv.reader(stream)
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
    return Table.from_dict(data, name=name)
