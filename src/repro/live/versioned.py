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
* readers *pin* a version (:meth:`VersionedTable.pin`) to keep its
  snapshot alive across mutations — snapshot isolation for sessions that
  must finish a pass on consistent data; unpinned superseded snapshots
  are released immediately;
* :meth:`VersionedTable.state` hands out the current version's whole
  evaluation context — the :class:`LiveState` triple ``(version,
  snapshot, shard set)`` — memoized per partition count, so engines
  sharing one source **re-shard lazily on growth**: the first operation
  after a mutation rebuilds the (zero-copy) shards, every other sibling
  borrows them.  The table is the *only* owner of that triple: engines
  hold it for the length of one operation, so the moment a mutation
  installs the next version, the superseded snapshot, its shards, zone
  maps and bitmaps are freed by reference count — however many idle
  sessions last saw them (a :meth:`pin` is the one way to keep a
  superseded snapshot);
  :meth:`VersionedTable.sampled` memoizes seeded uniform samples of the
  current version the same way;
* :meth:`VersionedTable.profile` maintains
  :class:`~repro.live.profile.IncrementalTableProfile` statistics —
  counts, min/max, frequencies, medians and quantiles updated from each
  batch instead of recomputed from scratch.

Thread safety: all mutations and snapshot bookkeeping run under one
reentrant lock; ``version``, ``table`` and memoized :meth:`state` reads
are single-reference reads of values that are only ever replaced
atomically.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import StorageError
from repro.sdl.query import SDLQuery
from repro.storage.expression import query_mask
from repro.storage.partition import PartitionedTable
from repro.storage.sampling import sample_table
from repro.storage.statistics import TableProfile
from repro.storage.table import Table

__all__ = ["LiveState", "VersionPin", "VersionedTable"]


class LiveState(NamedTuple):
    """One version's evaluation context, handed out whole.

    Operations capture the triple once up front, so a concurrent ingest
    can never pair a new snapshot with an old version tag (or an old
    shard set with a new mask length) inside a single evaluation.
    """

    version: int
    table: Table
    partitioned: PartitionedTable


class VersionPin:
    """A reader's hold on one snapshot of a :class:`VersionedTable`.

    While at least one pin on a version exists, its snapshot (and the
    guarantee that every mask/aggregate computed against it stays
    meaningful) survives subsequent mutations.  Pins are context managers::

        with source.pin() as pin:
            table = pin.table        # immutable, never changes under you
            ...                      # released on exit

    Releasing is idempotent.
    """

    def __init__(self, source: "VersionedTable", version: int, table: Table):
        self._source = source
        self.version = version
        self.table = table
        self._released = False

    def release(self) -> None:
        """Give the snapshot back (idempotent)."""
        if not self._released:
            self._released = True
            self._source._release(self.version)

    def __enter__(self) -> "VersionPin":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self._released else "held"
        return f"VersionPin(version={self.version}, {state})"


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
        #: Superseded snapshots kept alive by pins: version -> table.
        self._retained: Dict[int, Table] = {}
        #: Pin reference counts per version.
        self._pins: Dict[int, int] = {}
        #: Evaluation contexts of the *current* version: partitions ->
        #: LiveState.  The dict is replaced, never cleared, on install, so
        #: state() reads it without the lock.
        self._states: Dict[int, LiveState] = {}
        #: Seeded samples of the *current* version: (fraction, seed) -> Table.
        self._sampled: Dict[Tuple[float, int], Table] = {}
        self._profile: Optional[Any] = None

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

    def snapshot(self, version: Optional[int] = None) -> Table:
        """The snapshot of a version (current by default).

        Raises
        ------
        StorageError
            When the version is neither current nor retained by a pin.
        """
        with self._lock:
            if version is None or version == self._version:
                return self._current
            retained = self._retained.get(version)
            if retained is None:
                raise StorageError(
                    f"version {version} of table {self.name!r} is no longer "
                    f"available (current: {self._version}, retained: "
                    f"{sorted(self._retained)})"
                )
            return retained

    def retained_versions(self) -> List[int]:
        """Superseded versions still alive through pins, oldest first."""
        with self._lock:
            return sorted(self._retained)

    # -- pinning --------------------------------------------------------------

    def pin(self, version: Optional[int] = None) -> VersionPin:
        """Pin a version's snapshot so mutations cannot release it."""
        with self._lock:
            resolved = self._version if version is None else int(version)
            table = self.snapshot(resolved)
            self._pins[resolved] = self._pins.get(resolved, 0) + 1
            return VersionPin(self, resolved, table)

    def _release(self, version: int) -> None:
        with self._lock:
            remaining = self._pins.get(version, 0) - 1
            if remaining > 0:
                self._pins[version] = remaining
                return
            self._pins.pop(version, None)
            if version != self._version:
                self._retained.pop(version, None)

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
            new_table = self._current.append_rows(materialised)
            if self._profile is not None:
                appended = new_table.slice_rows(
                    self._current.num_rows, new_table.num_rows
                )
                self._profile.absorb_append(appended)
            self._install_locked(new_table)
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
            if self._profile is not None:
                self._profile.absorb_delete(self._current, mask)
            self._install_locked(self._current.filter(~mask, name=self._current.name))
            return deleted, self._version

    def _install_locked(self, table: Table) -> None:
        """Make ``table`` the current snapshot under a bumped version (caller holds the lock)."""
        if self._pins.get(self._version):
            self._retained[self._version] = self._current
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
        the shards — in particular the zone maps and bitmap indexes of
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

    def profile(self) -> TableProfile:
        """Incrementally maintained statistics of the current snapshot.

        The first call scans the table once; every subsequent
        :meth:`append_batch`/:meth:`delete_where` folds only the affected
        rows into the frequency sketches, from which min/max, medians,
        quantiles, entropies and top values are derived — identical to a
        fresh :func:`~repro.storage.statistics.profile_table` run (the
        live test suite asserts this bit-for-bit).
        """
        from repro.live.profile import IncrementalTableProfile

        with self._lock:
            if self._profile is None:
                self._profile = IncrementalTableProfile(self._current)
            return self._profile.profile()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VersionedTable({self.name!r}, rows={self.num_rows}, "
            f"version={self._version})"
        )
