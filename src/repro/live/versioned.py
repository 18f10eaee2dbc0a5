"""Versioned mutable tables: copy-on-write snapshots over the column store.

Charles is pitched as an advisor the user consults *while* exploring big,
evolving datasets — yet the storage substrate is deliberately immutable:
:class:`~repro.storage.table.Table` and its columns never change, which is
what makes zero-copy sharding, shared caches and concurrent sessions
trivially safe.  :class:`VersionedTable` reconciles the two: it is the one
*mutable* handle over a chain of immutable snapshots.

* :meth:`VersionedTable.append_batch` builds a new snapshot by appending a
  batch of row mappings (array-level concatenation through
  :meth:`~repro.storage.table.Table.append_rows` — only the batch is
  encoded, existing rows are never copied row-wise, and the dictionary of
  every string column only grows, so the snapshot is bit-for-bit the table
  a cold load of the concatenated data would produce);
* :meth:`VersionedTable.delete_where` removes the rows an SDL query
  selects, producing a filtered snapshot;
* every successful mutation bumps a **monotonic data version** — the
  integer the caches (:meth:`repro.storage.cache.ResultCache.put`), the
  breadcrumbs (:class:`repro.core.session.ExplorationStep.data_version`)
  and the wire protocol report;
* :meth:`VersionedTable.state` hands out the current version's whole
  evaluation context — the :class:`LiveState` triple ``(version,
  snapshot, shard set)`` — memoized per partition count, so engines
  sharing one source **re-shard lazily on growth**: the first operation
  after a mutation rebuilds the (zero-copy) shards, every other sibling
  borrows them.  The table is the *only* owner of that triple: engines
  hold it for the length of one operation, so the moment a mutation
  installs the next version, the superseded snapshot, its shards and zone
  maps are freed by reference count — however many idle
  sessions last saw them;
  :meth:`VersionedTable.sampled` memoizes seeded uniform samples of the
  current version the same way.

Isolation needs no bookkeeping: a snapshot is immutable, so an operation that
captured its :class:`LiveState`, or any caller holding a reference to
:attr:`VersionedTable.table`, keeps answering on the rows it saw while
later mutations install new versions; a snapshot nobody holds is freed.

Thread safety: all mutations and snapshot bookkeeping run under one
reentrant lock; ``version``, ``table`` and memoized :meth:`state` reads
are single-reference reads of values that are only ever replaced
atomically.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.sdl.query import SDLQuery
from repro.storage.expression import query_mask
from repro.storage.partition import PartitionedTable
from repro.storage.sampling import sample_table
from repro.storage.table import Table

__all__ = ["LiveState", "VersionedTable"]


class LiveState(NamedTuple):
    """One version's evaluation context, handed out whole.

    Operations capture the triple once up front, so a concurrent ingest
    can never pair a new snapshot with an old version tag (or an old
    shard set with a new mask length) inside a single evaluation.
    """

    version: int
    table: Table
    partitioned: PartitionedTable


class VersionedTable:
    """A mutable, monotonically versioned view over immutable snapshots.

    Parameters
    ----------
    table:
        The initial snapshot (version 1).

    Notes
    -----
    Every :class:`~repro.storage.engine.QueryEngine` wraps its table in
    one of these (or shares the one it is given), so all engines are
    mutation-aware by construction; static workloads simply never move
    past version 1 and pay one integer comparison per operation.
    """

    def __init__(self, table: Table):
        self._lock = threading.RLock()
        self._version = 1
        self._current = table
        #: Evaluation contexts of the *current* version: partitions ->
        #: LiveState.  The dict is replaced, never cleared, on install, so
        #: state() reads it without the lock.
        self._states: Dict[int, LiveState] = {}
        #: Seeded samples of the *current* version: (fraction, seed) -> Table.
        self._sampled: Dict[Tuple[float, int], Table] = {}

    # -- introspection --------------------------------------------------------

    @property
    def name(self) -> str:
        """The relation's name (stable across versions)."""
        return self._current.name

    @property
    def version(self) -> int:
        """The current data version (starts at 1, bumps on every mutation)."""
        return self._version

    @property
    def table(self) -> Table:
        """The current snapshot."""
        return self._current

    @property
    def num_rows(self) -> int:
        return self._current.num_rows

    def state(self, partitions: int) -> LiveState:
        """The current ``(version, snapshot, shard set)``, captured atomically.

        Every operation of every engine over this source starts here, so
        a mutation landing mid-read can never pair one version's number
        with another version's rows or shards.  The hit is one lock-free
        dictionary read; only the first caller after a mutation (per
        partition count) takes the lock and shards the new snapshot.
        """
        state = self._states.get(partitions)
        if state is None:
            with self._lock:
                self.partitioned(partitions)
                state = self._states[partitions]
        return state

    # -- mutation -------------------------------------------------------------

    def append_batch(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Append a batch of row mappings; returns the (new) data version.

        An empty batch is a no-op and does **not** bump the version, so
        caches stay warm.  Unknown columns raise
        :class:`~repro.errors.SchemaError`; missing keys become missing
        values; values are coerced to the existing column types.
        """
        materialised = list(rows)
        with self._lock:
            if not materialised:
                return self._version
            self._install_locked(self._current.append_rows(materialised))
            return self._version

    def delete_where(self, query: SDLQuery) -> Tuple[int, int]:
        """Delete the rows a query selects; returns ``(deleted, version)``.

        Selecting nothing is a no-op that keeps the current version (and
        every cache entry) intact.
        """
        with self._lock:
            mask = query_mask(self._current, query)
            deleted = int(np.count_nonzero(mask))
            if deleted == 0:
                return 0, self._version
            self._install_locked(self._current.filter(~mask, name=self._current.name))
            return deleted, self._version

    def _install_locked(self, table: Table) -> None:
        """Make ``table`` the current snapshot under a bumped version (caller holds the lock)."""
        self._current = table
        self._version += 1
        # Shards and samples of the old snapshot are stale; they rebuild
        # lazily on the next state() / sampled() call.  Dropping the memo
        # drops the last reference to them.
        self._states = {}
        self._sampled.clear()

    # -- derived structures ---------------------------------------------------

    def partitioned(self, partitions: int) -> PartitionedTable:
        """The (memoized) shard set of the current version.

        Engines sharing this source all receive the same
        :class:`~repro.storage.partition.PartitionedTable` per partition
        count; after a mutation the first caller re-shards the new
        snapshot and the rest reuse it.

        This memo is also the version key of every structure derived from
        the shards — in particular the zone maps of
        :meth:`PartitionedTable.skipping`.  An ingest or delete drops the
        memo (:meth:`_install_locked`), so superseded skipping indexes vanish
        with their shard set and can never answer a query against newer
        data; no separate invalidation protocol is needed.
        """
        partitions = int(partitions)
        with self._lock:
            state = self._states.get(partitions)
            if state is None:
                state = LiveState(
                    self._version,
                    self._current,
                    PartitionedTable(self._current, partitions),
                )
                self._states[partitions] = state
            return state.partitioned

    def sampled(self, fraction: float, seed: Optional[int] = None) -> Table:
        """A uniform sample of the current version, memoized per seed.

        Engines sharing this source all receive the same sampled table
        for one ``(fraction, seed)``, exactly as they share shard sets;
        a mutation clears the memo.  An unseeded sample is drawn afresh
        on every call.
        """
        if seed is None:
            return sample_table(self.table, fraction=fraction)
        key = (float(fraction), int(seed))
        with self._lock:
            table = self._sampled.get(key)
            if table is None:
                table = sample_table(self._current, fraction=fraction, seed=seed)
                self._sampled[key] = table
            return table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VersionedTable({self.name!r}, rows={self.num_rows}, "
            f"version={self._version})"
        )
