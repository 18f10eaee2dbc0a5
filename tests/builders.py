"""Table builders the tests share (the fixtures in ``conftest.py`` use them too)."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import WorkloadError
from repro.storage import Table
from repro.workloads.generators import make_rng


def make_independent_table(
    rows: int = 2000,
    cardinalities: Sequence[int] = (4, 4, 6),
    seed: Optional[int] = 0,
    name: str = "independent",
) -> Table:
    """Categorical columns drawn independently and uniformly.

    Columns are named ``a0, a1, ...``; column ``ai`` has
    ``cardinalities[i]`` uniform values ``v0 ... v{k-1}``.  Any pair of
    columns is independent by construction, so Proposition 1 predicts
    ``INDEP ≈ 1``.
    """
    if rows <= 0:
        raise WorkloadError(f"rows must be positive, got {rows}")
    rng = make_rng(seed)
    data = {}
    for index, cardinality in enumerate(cardinalities):
        if cardinality < 2:
            raise WorkloadError("every cardinality must be at least 2")
        draws = rng.integers(0, cardinality, size=rows)
        data[f"a{index}"] = [f"v{int(v)}" for v in draws]
    return Table.from_dict(data, name=name)


def write_csv(table: Table, path: Path) -> None:
    """Write a table out as CSV (decoded values, empty string for missing)."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        for row in table.iter_rows():
            writer.writerow(
                ["" if row[column] is None else row[column] for column in table.column_names]
            )
