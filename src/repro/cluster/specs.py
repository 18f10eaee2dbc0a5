"""Table specifications: how a cluster node knows what data to serve.

A cluster launches N advisor server *processes*; each must build its own
copy of the served tables.  Shipping live :class:`~repro.storage.table.Table`
objects across a process boundary would be slow and version-fragile, so
the supervisor ships a :class:`TableSpec` instead — a tiny JSON-safe
recipe (a built-in synthetic dataset with its row count and seed, or a
CSV path; its fields by name, ``spec._asdict()``, are its wire form) that
every node loads *deterministically*: two nodes given the same spec hold
bit-identical tables, which is what makes router-vs-local advice parity
possible at all.

It is also the one table of built-in datasets: the CLI resolves
``--dataset`` through :meth:`TableSpec.load` too.  Importing the module
loads neither the engine nor NumPy — the router and the CLI's argument
parser read it; only :meth:`TableSpec.load`, which runs in the process
that serves the table, imports the generators.  A spec is a named tuple,
not a dataclass, so the router does not load :mod:`dataclasses` (and
:mod:`inspect` with it) for it.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.errors import ClusterError

if TYPE_CHECKING:  # typing only: a spec is loaded in the node, not the router
    from repro.storage.table import Table

__all__ = ["TableSpec", "dataset_names"]


#: Each built-in dataset → its generator, ``(module, function)``: imported by
#: :meth:`TableSpec.load` alone, one dataset's module at a time, so neither
#: the router nor the CLI's parser loads NumPy, nor a node other datasets.
_GENERATORS = {
    "voc": ("repro.workloads.voc", "generate_voc"),
    "astronomy": ("repro.workloads.astronomy", "generate_astronomy"),
    "weblog": ("repro.workloads.weblog", "generate_weblog"),
}

#: Default row counts per built-in dataset (``rows=None``).
_DEFAULT_ROWS = {"voc": 5000, "astronomy": 8000, "weblog": 10000}


def dataset_names() -> tuple:
    """The built-in synthetic datasets a :class:`TableSpec` can name."""
    return tuple(sorted(_DEFAULT_ROWS))


class _Fields(NamedTuple):
    kind: str
    name: str
    rows: Optional[int]
    seed: int
    path: Optional[str]


class TableSpec(_Fields):
    """A deterministic, JSON-safe recipe for one served table.

    Parameters
    ----------
    kind:
        ``"dataset"`` (a built-in synthetic generator) or ``"csv"``.
    name:
        Dataset name for ``kind="dataset"`` (``voc``, ``astronomy``,
        ``weblog``).
    rows:
        Row count for built-in datasets (``None`` = the dataset default).
    seed:
        Random seed for built-in datasets; the same seed yields the same
        bytes in every process.
    path:
        CSV file path for ``kind="csv"``.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        name: str = "",
        rows: Optional[int] = None,
        seed: int = 42,
        path: Optional[str] = None,
    ) -> "TableSpec":
        if kind not in ("dataset", "csv"):
            raise ClusterError(
                f"unknown table spec kind {kind!r}; expected 'dataset' or 'csv'"
            )
        if kind == "dataset" and name not in _DEFAULT_ROWS:
            raise ClusterError(
                f"unknown built-in dataset {name!r}; "
                f"available: {', '.join(dataset_names())}"
            )
        if kind == "csv" and not path:
            raise ClusterError("a csv table spec requires a 'path'")
        return super().__new__(cls, kind, name, rows, seed, path)

    @classmethod
    def dataset(cls, name: str, rows: Optional[int] = None, seed: int = 42) -> "TableSpec":
        """A spec for one built-in synthetic dataset."""
        return cls(kind="dataset", name=name, rows=rows, seed=seed)

    @classmethod
    def csv(cls, path: str) -> "TableSpec":
        """A spec loading a CSV file from a path every node can read."""
        return cls(kind="csv", path=path)

    def load(self) -> Table:
        """Build the table this spec describes (deterministic per spec)."""
        if self.kind == "csv":
            from repro.storage.csv_loader import load_csv

            assert self.path is not None  # __new__ guarantees it
            return load_csv(self.path)
        module, function = _GENERATORS[self.name]
        generator = getattr(importlib.import_module(module), function)
        rows = self.rows if self.rows is not None else _DEFAULT_ROWS[self.name]
        return generator(rows=rows, seed=self.seed)

    def describe(self) -> str:
        if self.kind == "csv":
            return f"csv:{self.path}"
        return f"dataset:{self.name}(rows={self.rows}, seed={self.seed})"
