"""Zone maps and shard skipping for partitioned evaluation.

A *zone map* is the classic data-skipping structure of columnar systems
(the min/max form of Moerkotte's small materialized aggregates): per
shard and per numeric column (INT, FLOAT, DATE), the min and max of the
shard's non-missing values in the column's stored domain (dates as
ordinals) and whether the shard holds a value at all.  A range predicate
whose interval misses a shard's ``[min, max]``, or a shard holding no
value, selects nothing there: the shard's contribution to the mask is
all-``False``, its contribution to a count is zero, and its contribution
to a median gather is empty.

Skipping is *proof-carrying*: a shard is only skipped when the zone map
demonstrates emptiness under the exact evaluation semantics of
:mod:`repro.storage.expression`, on the bound query: its bounds are the
numbers :meth:`~repro.storage.column.NumericColumn.mask_range` compares,
and binding raises before any shard is decided.  Every other predicate
shape falls through to a real evaluation, so results are bit-for-bit
identical to the unindexed path.
The differential harness (``tests/differential/``) re-evaluates every
skipped shard brute-force to check the proof.

:class:`SkippingIndexes` holds the lazily built zone maps of one
:class:`~repro.storage.partition.PartitionedTable`.  Version keying comes
from the substrate: partitioned tables are memoized per data version by
:class:`~repro.live.VersionedTable` and rebuilt on mutation, so the zone
maps hanging off a superseded shard set can never answer a query against
newer data.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.sdl.predicates import RangePredicate
from repro.sdl.query import SDLQuery
from repro.storage.expression import bind, query_mask
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

        A shard is skipped when a numeric range predicate of the bound
        query provably selects nothing on it.
        """
        schema = self._shards[0].schema()
        skipped = np.zeros(len(self._shards), dtype=bool)
        for predicate in bind(query, schema).predicates:
            if isinstance(predicate, RangePredicate) and schema[predicate.attribute].is_numeric:
                low, high = predicate.low, predicate.high
                lows, highs, present = self._zone_map(predicate.attribute)
                skipped |= ~present
                skipped |= highs < low if predicate.include_low else highs <= low
                skipped |= lows > high if predicate.include_high else lows >= high
        return skipped.tolist()

    # -- index-assisted evaluation ---------------------------------------------

    def _shard_masks(self, query: SDLQuery, zonemaps: bool) -> Tuple[List[np.ndarray], int]:
        """Per-shard masks in partition order, and how many shards were skipped.

        Skipped shards contribute all-``False`` slices; every other shard
        is evaluated inline.
        """
        decisions = (
            self.skip_decisions(query) if zonemaps else [False] * len(self._shards)
        )
        masks = [
            np.zeros(shard.num_rows, dtype=bool) if skip else query_mask(shard, query)
            for shard, skip in zip(self._shards, decisions)
        ]
        return masks, sum(decisions)

    def query_mask(self, query: SDLQuery, *, zonemaps: bool = True) -> Tuple[np.ndarray, int]:
        """``(full-table mask, skipped shard count)`` with skipping applied.

        Concatenating the shard masks in partition order is bit-for-bit
        the unindexed mask; one shard's mask is returned as it is.
        """
        masks, skipped = self._shard_masks(query, zonemaps)
        if len(masks) == 1:
            return masks[0], skipped
        return np.concatenate(masks), skipped

    def count(self, query: SDLQuery, *, zonemaps: bool = True) -> Tuple[int, int]:
        """``(cardinality, skipped shard count)`` without assembling the mask."""
        masks, skipped = self._shard_masks(query, zonemaps)
        return sum(int(np.count_nonzero(mask)) for mask in masks), skipped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            zones = len(self._zones)
        return (
            f"SkippingIndexes(partitions={self.num_partitions}, "
            f"zone_maps={zones})"
        )
