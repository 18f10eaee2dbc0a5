"""Row-range partitioning of a table for parallel evaluation.

The paper (Section 5.1) reduces all of Charles' database work to counts
and medians over conjunctive predicates — an *embarrassingly scannable*
workload: every operation is a full scan whose per-row work is independent
of every other row.  :class:`PartitionedTable` exploits that by sharding a
:class:`~repro.storage.table.Table` into ``N`` contiguous row-range
partitions and evaluating each operation *per partition*, merging the
partial results:

* **masks** concatenate — shard masks in partition order reassemble the
  full-table selection vector bit-for-bit;
* **counts** sum — ``|R(Q)|`` is the sum of per-partition cardinalities;
* **medians** merge through a per-partition value gather — each shard
  contributes the raw (encoded) values selected on its rows, and the
  median of the concatenated gather equals the median over the full
  selection, decoded by the source column exactly like the sequential
  path.

The mapping step is pluggable: every method takes a ``map_fn(fn, items)``
so callers choose *where* the per-partition work runs — inline (the
sequential path is literally the one-partition / inline-map special case)
or on an :class:`~repro.backends.pool.ExecutorPool`.  Determinism is
preserved by construction: partition boundaries are fixed, partial results
are merged in partition order, and every merge is order-insensitive or
order-preserving, so results are identical for every ``partitions ×
workers`` combination — including ``partitions > rows`` (trailing empty
shards contribute empty partials).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StorageError, TypeMismatchError
from repro.sdl.query import SDLQuery
from repro.storage.expression import query_mask
from repro.storage.table import Table

__all__ = ["PartitionedTable"]

#: ``map_fn(fn, items) -> list`` — how per-partition work is executed.
MapFn = Callable[[Callable[[Any], Any], Sequence[Any]], List[Any]]


def _inline_map(fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
    """The default mapper: evaluate partitions one after another."""
    return [fn(item) for item in items]


def partition_bounds(num_rows: int, partitions: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` row ranges splitting ``num_rows`` rows.

    The first ``num_rows % partitions`` ranges hold one extra row, so sizes
    differ by at most one.  With ``partitions > num_rows`` the trailing
    ranges are empty (``start == stop``) — callers must tolerate empty
    shards, which evaluate to empty partial results.
    """
    if partitions < 1:
        raise StorageError(f"partitions must be at least 1, got {partitions}")
    if num_rows < 0:
        raise StorageError(f"num_rows cannot be negative, got {num_rows}")
    base, remainder = divmod(num_rows, partitions)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(partitions):
        stop = start + base + (1 if index < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class PartitionedTable:
    """A table sharded into ``N`` contiguous row-range partitions.

    Parameters
    ----------
    table:
        The source relation.  With ``partitions=1`` the single shard *is*
        the source table (no copy), which is how the sequential engine
        routes through the same code path.
    partitions:
        Number of row-range shards.  May exceed the row count; the excess
        shards are empty.

    The shard tables are built once at construction as zero-copy views
    over the source arrays (contiguous row ranges are basic NumPy slices),
    so sharding costs neither time nor memory proportional to the table.
    """

    def __init__(self, table: Table, partitions: int = 1):
        partitions = int(partitions)
        if partitions < 1:
            raise StorageError(f"partitions must be at least 1, got {partitions}")
        self._table = table
        self._bounds = partition_bounds(table.num_rows, partitions)
        if partitions == 1:
            self._shards: List[Table] = [table]
        else:
            self._shards = [
                table.slice_rows(start, stop, name=f"{table.name}[{index}]")
                for index, (start, stop) in enumerate(self._bounds)
            ]
        self._skipping_lock = threading.Lock()
        self._skipping: Optional[Any] = None

    # -- introspection --------------------------------------------------------

    @property
    def table(self) -> Table:
        """The unsharded source relation."""
        return self._table

    @property
    def num_rows(self) -> int:
        return self._table.num_rows

    @property
    def num_partitions(self) -> int:
        return len(self._shards)

    @property
    def bounds(self) -> List[Tuple[int, int]]:
        """The ``[start, stop)`` row range of each shard, in order."""
        return list(self._bounds)

    @property
    def shards(self) -> List[Table]:
        """The shard tables, in partition order."""
        return list(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def skipping(self) -> "Any":
        """The shared :class:`~repro.storage.zonemap.SkippingIndexes`.

        Built lazily and memoized on the partitioned table itself, so
        every engine over the same shard set (siblings on a shared cache,
        workers on a pool) reuses one set of zone maps.  Version keying is
        inherited: a live table is the only owner of its current version's
        ``PartitionedTable``
        (:meth:`repro.live.VersionedTable.state`; engines borrow it per
        operation) and drops it on mutation, taking the attached indexes
        with it — at once, by reference count: the indexes refer to the
        shards, never back to this object.
        """
        with self._skipping_lock:
            if self._skipping is None:
                from repro.storage.zonemap import SkippingIndexes

                self._skipping = SkippingIndexes(self)
            return self._skipping

    # -- partition-aware evaluation -------------------------------------------

    def partition_masks(
        self, query: SDLQuery, map_fn: Optional[MapFn] = None
    ) -> List[np.ndarray]:
        """Per-partition boolean selection vectors, in partition order."""
        mapper = map_fn or _inline_map
        return mapper(lambda shard: query_mask(shard, query), self._shards)

    def query_mask(
        self, query: SDLQuery, map_fn: Optional[MapFn] = None
    ) -> np.ndarray:
        """The full-table selection mask, assembled from shard masks.

        Concatenating the per-partition masks in partition order is
        bit-for-bit the mask :func:`~repro.storage.expression.query_mask`
        computes over the unsharded table.  The plain scan is the skipping
        tier's evaluation with every index off.
        """
        return self.skipping().query_mask(query, map_fn, zonemaps=False)[0]

    def count(self, query: SDLQuery, map_fn: Optional[MapFn] = None) -> int:
        """``|R(Q)|`` as the sum of per-partition cardinalities."""
        return self.skipping().count(query, map_fn, zonemaps=False)[0]

    def median(
        self,
        attribute: str,
        mask: np.ndarray,
        map_fn: Optional[MapFn] = None,
    ) -> Any:
        """Median of ``attribute`` under a full-table mask, merged per shard.

        Each shard gathers the raw (encoded) values its slice of the mask
        selects; the merged gather holds exactly the multiset the
        sequential ``column.median(mask)`` reduces, so the result —
        including the even-cardinality mean and per-dtype decoding — is
        identical.  Only numeric-encoded columns (INT, FLOAT, DATE) define
        an arithmetic median; nominal columns raise
        :class:`~repro.errors.TypeMismatchError` exactly like the
        sequential path.
        """
        column = self._table.column(attribute)
        if not hasattr(column, "median_from_gathered"):
            raise TypeMismatchError(
                f"column {attribute!r} is nominal; use the nominal split rule "
                "(repro.core.median) instead of an arithmetic median"
            )
        mapper = map_fn or _inline_map

        def gather(item: Tuple[Tuple[int, int], Table]) -> np.ndarray:
            (start, stop), shard = item
            return shard.column(attribute).gather(mask[start:stop])

        parts = mapper(gather, list(zip(self._bounds, self._shards)))
        return column.median_from_gathered(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedTable({self._table.name!r}, rows={self.num_rows}, "
            f"partitions={self.num_partitions})"
        )
