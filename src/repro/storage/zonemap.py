"""Zone maps and shard skipping for partitioned evaluation.

A *zone map* is the classic data-skipping structure of columnar systems
(the min/max form of Moerkotte's small materialized aggregates): per
shard and per numeric column (INT, FLOAT, DATE), the min and max of the
shard's non-missing values in the column's *encoded* domain — the floats
:meth:`~repro.storage.column.NumericColumn.mask_range` compares — and
whether the shard holds a value at all.  A range predicate whose interval
misses a shard's ``[min, max]``, or a shard holding no value, selects
nothing there: the shard's contribution to the mask is all-``False``, its
contribution to a count is zero, and its contribution to a median gather
is empty.

Skipping is *proof-carrying*: a shard is only skipped when the zone map
demonstrates emptiness under the exact evaluation semantics of
:mod:`repro.storage.expression`, with the bounds encoded by the column's
own ``_encode_bound``.  Errors stay those of the scan without any copy of
the evaluation rules: the skip walk evaluates each predicate, in query
order, on a zero-row slice of the table and stops at the first one that
raises, so no shard is skipped whose real scan would raise first.  Every
other predicate shape falls through to a real evaluation, so results are
bit-for-bit identical to the unindexed path.  The differential harness
(``tests/differential/``) re-evaluates every skipped shard brute-force to
check the proof.

:class:`SkippingIndexes` holds the lazily built zone maps of one
:class:`~repro.storage.partition.PartitionedTable`.  Version keying comes
from the substrate: partitioned tables are memoized per data version by
:class:`~repro.live.VersionedTable` and rebuilt on mutation, so the zone
maps hanging off a superseded shard set can never answer a query against
newer data.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sdl.predicates import RangePredicate
from repro.sdl.query import SDLQuery
from repro.storage.column import NumericColumn
from repro.storage.expression import predicate_mask, query_mask
from repro.storage.table import Table

__all__ = ["SkippingIndexes"]

#: One zone map: per shard, the encoded min, the encoded max, and whether
#: the shard holds a non-missing value (min and max are 0 where it does not).
MinMax = Tuple[np.ndarray, np.ndarray, np.ndarray]


class SkippingIndexes:
    """The skipping-index tier of one :class:`PartitionedTable`.

    Holds one lazily built zone map per queried numeric attribute, and
    evaluates masks/counts with shard skipping.  One instance is shared by
    every engine over the same shard set (see
    :meth:`repro.storage.partition.PartitionedTable.skipping`, which owns
    it; it refers to the shards only, so both die together without a
    collector pass); laziness means only range-queried columns ever pay
    the collection scan.

    Thread safety: the zone-map dictionary is guarded by a lock; a racing
    double build is resolved by ``setdefault`` (a zone map is a
    deterministic function of the immutable shards, so either copy is
    correct).
    """

    def __init__(self, partitioned: Any):
        self._shards: List[Table] = partitioned.shards
        self._lock = threading.Lock()
        self._zones: Dict[str, MinMax] = {}

    @property
    def num_partitions(self) -> int:
        return len(self._shards)

    @functools.cached_property
    def _probe(self) -> Table:
        """A zero-row slice: a predicate raises on it exactly what a scan raises."""
        return self._shards[0].slice_rows(0, 0)

    def _zone_map(self, attribute: str) -> MinMax:
        """The (lazily collected) zone map of one numeric column."""
        with self._lock:
            zone = self._zones.get(attribute)
        if zone is not None:
            return zone
        lows = np.zeros(len(self._shards))
        highs = np.zeros(len(self._shards))
        present = np.zeros(len(self._shards), dtype=bool)
        for index, shard in enumerate(self._shards):
            column = shard.column(attribute)
            data = column.to_numpy()[column.valid_mask()]
            if data.size:
                lows[index], highs[index], present[index] = data.min(), data.max(), True
        with self._lock:
            return self._zones.setdefault(attribute, (lows, highs, present))

    # -- skip decisions --------------------------------------------------------

    def skip_decisions(self, query: SDLQuery) -> List[bool]:
        """Per-shard skip verdicts, in partition order.

        A shard is skipped when a numeric range predicate provably selects
        nothing on it.  Predicates are walked in query order, mirroring the
        short-circuit of :func:`~repro.storage.expression.query_mask`, and
        the walk stops at the first predicate that raises on the zero-row
        probe: the real scan then raises (or not) exactly as it would
        without indexes, and only shards an earlier predicate proved empty
        stay skipped.
        """
        skipped = np.zeros(len(self._shards), dtype=bool)
        predicates = list(query.predicates)
        while predicates and not isinstance(predicates[-1], RangePredicate):
            predicates.pop()  # nothing after the last range can add a skip
        for predicate in predicates:
            try:
                predicate_mask(self._probe, predicate)
            except Exception:
                break
            column = self._probe.column(predicate.attribute)
            if isinstance(predicate, RangePredicate) and isinstance(column, NumericColumn):
                low = column._encode_bound(predicate.low)
                high = column._encode_bound(predicate.high)
                lows, highs, present = self._zone_map(predicate.attribute)
                skipped |= ~present
                skipped |= highs < low if predicate.include_low else highs <= low
                skipped |= lows > high if predicate.include_high else lows >= high
        return skipped.tolist()

    # -- index-assisted evaluation ---------------------------------------------

    def _shard_masks(
        self, query: SDLQuery, map_fn: Optional[Callable], zonemaps: bool
    ) -> Tuple[List[np.ndarray], int]:
        """Per-shard masks in partition order, and how many shards were skipped.

        Skipped shards contribute all-``False`` slices.  Skip decisions are
        made inline; the per-shard evaluations fan out through ``map_fn``.
        """
        decisions = (
            self.skip_decisions(query) if zonemaps else [False] * len(self._shards)
        )
        mapper = map_fn or (lambda fn, items: [fn(item) for item in items])

        def evaluate(shard_index: int) -> np.ndarray:
            shard = self._shards[shard_index]
            if decisions[shard_index]:
                return np.zeros(shard.num_rows, dtype=bool)
            return query_mask(shard, query)

        return mapper(evaluate, list(range(len(self._shards)))), sum(decisions)

    def query_mask(
        self,
        query: SDLQuery,
        map_fn: Optional[Callable] = None,
        zonemaps: bool = True,
    ) -> Tuple[np.ndarray, int]:
        """``(full-table mask, skipped shard count)`` with skipping applied.

        Concatenating the shard masks in partition order is bit-for-bit
        the unindexed mask.
        """
        masks, skipped = self._shard_masks(query, map_fn, zonemaps)
        if len(masks) == 1:
            return masks[0], skipped
        return np.concatenate(masks), skipped

    def count(
        self,
        query: SDLQuery,
        map_fn: Optional[Callable] = None,
        zonemaps: bool = True,
    ) -> Tuple[int, int]:
        """``(cardinality, skipped shard count)`` without assembling the mask."""
        masks, skipped = self._shard_masks(query, map_fn, zonemaps)
        return sum(int(np.count_nonzero(mask)) for mask in masks), skipped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            zones = len(self._zones)
        return (
            f"SkippingIndexes(partitions={self.num_partitions}, "
            f"zone_maps={zones})"
        )
