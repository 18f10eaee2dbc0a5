"""Zone maps and shard skipping for partitioned evaluation.

A *zone map* is the classic data-skipping structure of columnar systems:
per shard and per column, a handful of statistics — encoded min/max,
null count, and (when small) the exact set of distinct values — that let
the engine prove, without touching the rows, that a predicate selects
nothing on that shard.  A conjunction then skips a shard as soon as any
of its constrained predicates is provably empty there: the shard's
contribution to the mask is all-``False``, its contribution to a count is
zero, and its contribution to a median gather is empty.

Skipping is *proof-carrying*: a shard is only skipped when the zone map
demonstrates emptiness under the exact evaluation semantics of
:mod:`repro.storage.expression` (encoded bounds, dictionary codes, SQL
missing-value rules).  Anything the zone map cannot decide — unknown
predicate shapes, bounds that fail to encode, statistics that were not
collected — falls through to a real evaluation, so results are
bit-for-bit identical to the unindexed path.  The differential harness
(``tests/differential/``) re-evaluates every skipped shard brute-force to
check the proof.

:class:`SkippingIndexes` bundles the lazily built zone maps of one
:class:`~repro.storage.partition.PartitionedTable`.  Version keying comes
from the substrate: partitioned tables are memoized per data version by
:class:`~repro.live.VersionedTable` and rebuilt on mutation, so the zone
maps hanging off a superseded shard set can never answer a query against
newer data.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.sdl.predicates import (
    ExclusionPredicate,
    Predicate,
    RangePredicate,
    SetPredicate,
)
from repro.sdl.query import SDLQuery
from repro.storage.column import (
    BoolColumn,
    Column,
    NumericColumn,
    StringColumn,
)
from repro.storage.expression import query_mask
from repro.storage.types import DataType, coerce_value, is_missing

__all__ = ["SkippingIndexes"]

#: Largest distinct-value set a zone map materialises exactly.  Beyond the
#: cap only min/max/null statistics are kept, which weakens exclusion
#: pruning but bounds the zone map to a few kilobytes per shard column.
DEFAULT_DISTINCT_CAP = 256


def _value_within(
    value: Any, low: Any, high: Any, include_low: bool, include_high: bool
) -> bool:
    """Interval membership with explicit bound inclusivity."""
    if include_low:
        if value < low:
            return False
    elif value <= low:
        return False
    if include_high:
        if value > high:
            return False
    elif value >= high:
        return False
    return True


class ZoneMap:
    """Per-shard, per-column skipping statistics.

    Statistics are collected once from the shard column's physical arrays:

    * ``rows`` / ``null_count`` / ``valid_rows`` — row and missing tallies;
    * ``low`` / ``high`` — min/max over the non-missing rows, in the
      column's *encoded* domain (floats for numeric and date columns,
      decoded strings for nominal ones, booleans for BOOL), so pruning
      compares in exactly the domain :meth:`Column.mask_range` does;
    * ``distinct`` — the exact set of present (encoded) values when there
      are at most ``distinct_cap`` of them, else ``None``.  The small-set
      form powers equality, IN and NOT-IN pruning.

    :meth:`allows` answers "can any row of this shard satisfy the
    predicate?".  ``False`` is a proof of emptiness; encoding errors
    propagate exactly like the real evaluation would raise them, which is
    how :meth:`SkippingIndexes.can_skip` keeps error behaviour identical
    to the unindexed path.
    """

    def __init__(self, column: Column, distinct_cap: int = DEFAULT_DISTINCT_CAP):
        self.column = column
        self.rows = len(column)
        valid = column.valid_mask()
        self.valid_rows = int(np.count_nonzero(valid))
        self.null_count = self.rows - self.valid_rows
        self.low: Any = None
        self.high: Any = None
        self.distinct: Optional[FrozenSet[Any]] = None
        if isinstance(column, NumericColumn):
            data = column.to_numpy()[valid]
            if data.size:
                self.low = float(data.min())
                self.high = float(data.max())
                uniques = np.unique(data)
                if uniques.size <= distinct_cap:
                    self.distinct = frozenset(float(u) for u in uniques)
            else:
                self.distinct = frozenset()
        elif isinstance(column, (StringColumn, BoolColumn)):
            present = frozenset(column.value_counts())
            if present:
                self.low = min(present)
                self.high = max(present)
            if len(present) <= distinct_cap:
                self.distinct = present

    # -- pruning ---------------------------------------------------------------

    def allows(self, predicate: Predicate) -> bool:
        """Whether some row of the shard *could* satisfy the predicate.

        ``False`` proves the predicate selects nothing here.  ``True``
        means "cannot rule it out" — the caller must evaluate for real.
        Bound/value encoding mirrors the corresponding ``mask_*`` method
        and raises the same errors, so a predicate that would fail to
        evaluate also fails to prune.
        """
        if isinstance(predicate, RangePredicate):
            return self._allows_range(predicate)
        if isinstance(predicate, SetPredicate):
            return self._allows_set(predicate)
        if isinstance(predicate, ExclusionPredicate):
            return self._allows_exclusion(predicate)
        return True

    def _allows_range(self, predicate: RangePredicate) -> bool:
        column = self.column
        if isinstance(column, NumericColumn):
            low = column._encode_bound(predicate.low)
            high = column._encode_bound(predicate.high)
        elif isinstance(column, StringColumn):
            low, high = str(predicate.low), str(predicate.high)
        elif isinstance(column, BoolColumn):
            low = int(bool(coerce_value(predicate.low, DataType.BOOL)))
            high = int(bool(coerce_value(predicate.high, DataType.BOOL)))
        else:
            return True
        if self.valid_rows == 0:
            return False
        if isinstance(column, BoolColumn):
            if self.distinct is None:  # pragma: no cover - bool sets are tiny
                return True
            return any(
                _value_within(
                    int(v), low, high, predicate.include_low, predicate.include_high
                )
                for v in self.distinct
            )
        if self.distinct is not None:
            return any(
                _value_within(
                    v, low, high, predicate.include_low, predicate.include_high
                )
                for v in self.distinct
            )
        if self.low is None:  # pragma: no cover - valid_rows > 0 implies bounds
            return True
        if predicate.include_low:
            if self.high < low:
                return False
        elif self.high <= low:
            return False
        if predicate.include_high:
            if self.low > high:
                return False
        elif self.low >= high:
            return False
        return True

    def _encoded_set(self, values: Any) -> Optional[List[Any]]:
        """Predicate values in the column's encoded domain (mask_set rules).

        Missing values are dropped exactly like ``mask_set`` drops them;
        encoding failures raise the same error the evaluation would.
        Returns ``None`` for column types without zone statistics.
        """
        column = self.column
        if isinstance(column, NumericColumn):
            encoded = np.array(
                [column._encode_bound(v) for v in values if not is_missing(v)],
                dtype=column.to_numpy().dtype,
            )
            return [float(v) for v in encoded]
        if isinstance(column, StringColumn):
            return [str(v) for v in values if not is_missing(v)]
        if isinstance(column, BoolColumn):
            return [
                bool(coerce_value(v, DataType.BOOL))
                for v in values
                if not is_missing(v)
            ]
        return None

    def _allows_set(self, predicate: SetPredicate) -> bool:
        wanted = self._encoded_set(predicate.values)
        if wanted is None:
            return True
        if not wanted:
            # mask_set over only-missing values is all-False everywhere.
            return False
        if self.valid_rows == 0:
            return False
        if self.distinct is not None:
            return any(value in self.distinct for value in wanted)
        if self.low is None:  # pragma: no cover - valid_rows > 0 implies bounds
            return True
        return any(self.low <= value <= self.high for value in wanted)

    def _allows_exclusion(self, predicate: ExclusionPredicate) -> bool:
        excluded = self._encoded_set(predicate.values)
        if excluded is None:
            return True
        if self.valid_rows == 0:
            return False
        if self.distinct is None:
            return True
        return bool(self.distinct - frozenset(excluded))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ZoneMap({self.column.name!r}, rows={self.rows}, "
            f"nulls={self.null_count}, low={self.low!r}, high={self.high!r}, "
            f"distinct={'-' if self.distinct is None else len(self.distinct)})"
        )


class SkippingIndexes:
    """The skipping-index tier of one :class:`PartitionedTable`.

    Holds the lazily built :class:`ZoneMap` per ``(shard, attribute)``
    pair, and evaluates masks/counts with shard skipping.  One instance is
    shared by every engine over the same shard set (see
    :meth:`repro.storage.partition.PartitionedTable.skipping`, which owns
    it; it refers to the shards only, so both die together without a
    collector pass); laziness means only queried columns ever pay the
    collection scan.

    Thread safety: the zone-map dictionary is guarded by a lock; a racing
    double build is resolved by ``setdefault`` (a zone map is a
    deterministic function of the immutable shard, so either copy is
    correct).
    """

    def __init__(self, partitioned: Any):
        self._shards: List[Any] = partitioned.shards
        self._lock = threading.Lock()
        self._zones: Dict[Tuple[int, str], ZoneMap] = {}

    @property
    def num_partitions(self) -> int:
        return len(self._shards)

    # -- lazy structures -------------------------------------------------------

    def zone_map(self, shard_index: int, attribute: str) -> ZoneMap:
        """The (lazily collected) zone map of one shard column."""
        key = (shard_index, attribute)
        with self._lock:
            zone = self._zones.get(key)
        if zone is not None:
            return zone
        zone = ZoneMap(self._shards[shard_index].column(attribute))
        with self._lock:
            return self._zones.setdefault(key, zone)

    # -- skip decisions --------------------------------------------------------

    def can_skip(self, shard_index: int, query: SDLQuery) -> bool:
        """Whether the shard provably contributes nothing to the query.

        Predicates are examined in query order, mirroring the short-circuit
        of :func:`~repro.storage.expression.query_mask`: the first
        provably-empty constrained predicate proves the conjunction empty.
        Any error while validating a column or encoding a bound makes the
        shard unskippable — the real evaluation then raises (or not)
        exactly as it would without indexes.
        """
        shard = self._shards[shard_index]
        for predicate in query.predicates:
            if not predicate.is_constrained:
                try:
                    shard.column(predicate.attribute)
                except Exception:
                    return False
                continue
            try:
                allowed = self.zone_map(shard_index, predicate.attribute).allows(
                    predicate
                )
            except Exception:
                return False
            if not allowed:
                return True
        return False

    def skip_decisions(self, query: SDLQuery) -> List[bool]:
        """Per-shard skip verdicts, in partition order (used by tests/benches)."""
        return [
            self.can_skip(index, query) for index in range(len(self._shards))
        ]

    # -- index-assisted evaluation ---------------------------------------------

    def query_mask(
        self,
        query: SDLQuery,
        map_fn: Optional[Callable] = None,
        zonemaps: bool = True,
    ) -> Tuple[np.ndarray, int]:
        """``(full-table mask, skipped shard count)`` with skipping applied.

        Skipped shards contribute all-``False`` slices, so the
        concatenated mask is bit-for-bit the unindexed mask.  Skip
        decisions are made inline (zone collection is a one-time scan per
        shard column); the per-shard evaluations still fan out through
        ``map_fn``.
        """
        decisions = self.skip_decisions(query) if zonemaps else None
        mapper = map_fn or (lambda fn, items: [fn(item) for item in items])

        def evaluate(shard_index: int) -> np.ndarray:
            shard = self._shards[shard_index]
            if decisions is not None and decisions[shard_index]:
                return np.zeros(shard.num_rows, dtype=bool)
            return query_mask(shard, query)

        masks = mapper(evaluate, list(range(len(self._shards))))
        skipped = sum(decisions) if decisions is not None else 0
        if len(masks) == 1:
            return masks[0], int(skipped)
        return np.concatenate(masks), int(skipped)

    def count(
        self,
        query: SDLQuery,
        map_fn: Optional[Callable] = None,
        zonemaps: bool = True,
    ) -> Tuple[int, int]:
        """``(cardinality, skipped shard count)`` without assembling the mask."""
        decisions = self.skip_decisions(query) if zonemaps else None
        mapper = map_fn or (lambda fn, items: [fn(item) for item in items])

        def partial(shard_index: int) -> int:
            if decisions is not None and decisions[shard_index]:
                return 0
            return int(np.count_nonzero(query_mask(self._shards[shard_index], query)))

        partials = mapper(partial, list(range(len(self._shards))))
        skipped = sum(decisions) if decisions is not None else 0
        return int(sum(partials)), int(skipped)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            zones = len(self._zones)
        return (
            f"SkippingIndexes(partitions={self.num_partitions}, "
            f"zone_maps={zones})"
        )
