"""Row-range partitioning of a table: the units zone maps skip.

The paper (Section 5.1) reduces all of Charles' database work to counts
and medians over conjunctive predicates — an *embarrassingly scannable*
workload: every operation is a full scan whose per-row work is independent
of every other row.  :class:`PartitionedTable` exploits that by sharding a
:class:`~repro.storage.table.Table` into ``N`` contiguous row-range
partitions and evaluating each scan *per partition*, merging the
partial results:

* **masks** concatenate — shard masks in partition order reassemble the
  full-table selection vector bit-for-bit;
* **counts** sum — ``|R(Q)|`` is the sum of per-partition cardinalities
  (:class:`~repro.storage.zonemap.SkippingIndexes`, reached through
  :meth:`PartitionedTable.skipping`, owns both scans).

A median needs no merge: the engine reduces the source column under the
assembled full-table mask, one pass over the selected values.

Shards exist for skipping: a zone map proves a shard empty under a range
and the scan passes over it.  Every shard is evaluated inline, on the
calling thread, and an engine that forces no shard count evaluates
through one shard, the table itself.  Determinism holds by construction:
partition boundaries are fixed, partial results are merged in partition
order, and every merge is order-insensitive or order-preserving, so
results are identical for every shard count — including
``partitions > rows`` (trailing empty shards contribute empty partials).
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.table import Table

__all__ = ["PartitionedTable"]


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
        every engine over the same shard set (siblings on a shared cache)
        reuses one set of zone maps.  Version keying is
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedTable({self._table.name!r}, rows={self.num_rows}, "
            f"partitions={self.num_partitions})"
        )
