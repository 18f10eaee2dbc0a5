"""Mergeable fixed-budget summaries of one column.

* :class:`MergeableQuantileSketch` — a fixed-budget weighted summary of a
  numeric (or date) column in its encoded domain.  It lives in
  :mod:`repro.obs.metrics` (pure Python: the latency histograms are built
  on it and the cluster router merges them without NumPy) and is imported
  here for :class:`TableSketches`.
* :class:`NominalCountSketch` — a capped value → count summary of a
  nominal column with exact spill accounting: values beyond the cap are
  dropped but their total mass and the largest dropped count are kept,
  so per-value estimates carry a provable undercount bound.
* :class:`TableSketches` — the lazy per-``(shard, attribute)`` registry
  over one :class:`~repro.storage.partition.PartitionedTable`.

No request path reads the last two: approximate answers come
from a row sample (:mod:`repro.backends.approx`), because per-column
summaries cannot see the dependence between attributes the advisor
looks for.  They stay only because ``bench/spans.py`` wraps
``TableSketches.quantile_sketch`` / ``.nominal_sketch`` by name and a PR
that is not a ``[benchmark]`` PR may not edit ``bench/``; the next one
deletes them.

Determinism is a design requirement, not an accident: there is no
randomness anywhere (stride compaction picks centred representatives),
so tests can assert *exact* containment of every estimate within its
reported bound, reproducibly.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import MergeableQuantileSketch
from repro.storage.column import BoolColumn, NumericColumn, StringColumn

__all__ = ["MergeableQuantileSketch", "TableSketches"]

#: Default number of weighted items a quantile sketch retains.  512 items
#: keep the rank error of a single-shard sketch under 0.2% of the rows
#: while the whole sketch stays a few kilobytes.
DEFAULT_SKETCH_BUDGET = 512

#: Default number of distinct values a nominal count sketch materialises
#: exactly.
DEFAULT_NOMINAL_CAP = 256

#: Deterministic ordering key for values of mixed types (mirrors the
#: codec's set ordering, so capped retention is reproducible).
_VALUE_ORDER = lambda item: (-item[1], str(type(item[0])), str(item[0]))  # noqa: E731


class NominalCountSketch:
    """A capped value → count summary of a nominal column.

    Keeps the ``cap`` most frequent (decoded) values exactly; the rest
    are dropped but accounted: ``spilled_weight`` is their total mass and
    ``max_dropped`` the largest single dropped count, so the estimate for
    an absent value is ``0`` with undercount at most ``max_dropped``.
    Retention order is deterministic (count descending, then a stable
    textual key), so equal inputs produce equal sketches.
    """

    __slots__ = ("cap", "counts", "total_weight", "spilled_weight", "max_dropped")

    def __init__(
        self,
        cap: int,
        counts: Dict[Any, int],
        total_weight: int,
        spilled_weight: int = 0,
        max_dropped: int = 0,
    ):
        self.cap = max(1, int(cap))
        self.counts = counts
        self.total_weight = int(total_weight)
        self.spilled_weight = int(spilled_weight)
        self.max_dropped = int(max_dropped)

    @classmethod
    def from_counts(
        cls, counts: Dict[Any, int], cap: int = DEFAULT_NOMINAL_CAP
    ) -> "NominalCountSketch":
        """Summarise an exact value-count mapping (one shard's histogram)."""
        total = sum(counts.values())
        sketch = cls(cap, dict(counts), total)
        return sketch._capped()

    def _capped(self) -> "NominalCountSketch":
        if len(self.counts) <= self.cap:
            return self
        ordered = sorted(self.counts.items(), key=_VALUE_ORDER)
        kept = dict(ordered[: self.cap])
        dropped = ordered[self.cap :]
        spilled = self.spilled_weight + sum(count for _, count in dropped)
        # The bounds ADD: a value may have lost mass before this cap (up
        # to ``max_dropped``) and lose its surviving count here too.
        max_dropped = self.max_dropped + max(count for _, count in dropped)
        return NominalCountSketch(
            self.cap, kept, self.total_weight, spilled, max_dropped
        )

    def merge(self, other: "NominalCountSketch") -> "NominalCountSketch":
        """A new sketch over the union; spill bounds add before re-capping."""
        combined = dict(self.counts)
        for value, count in other.counts.items():
            combined[value] = combined.get(value, 0) + count
        merged = NominalCountSketch(
            max(self.cap, other.cap),
            combined,
            self.total_weight + other.total_weight,
            self.spilled_weight + other.spilled_weight,
            self.max_dropped + other.max_dropped,
        )
        return merged._capped()

    def estimate(self, value: Any) -> Tuple[int, int]:
        """``(count, undercount_bound)`` for one value."""
        count = self.counts.get(value)
        if count is not None:
            # A retained value may still have lost merged-away mass on
            # shards where it fell under the cap.
            return int(count), self.max_dropped
        return 0, self.max_dropped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NominalCountSketch(values={len(self.counts)}, "
            f"weight={self.total_weight}, spilled={self.spilled_weight})"
        )


class _ShardStats:
    """Exact per-shard column extrema and validity tallies (one scan)."""

    __slots__ = ("rows", "valid_rows", "minimum", "maximum")

    def __init__(self, column: Any):
        self.rows = len(column)
        valid = column.valid_mask()
        self.valid_rows = int(np.count_nonzero(valid))
        self.minimum: Optional[Any] = None
        self.maximum: Optional[Any] = None
        if self.valid_rows:
            self.minimum = column.minimum()
            self.maximum = column.maximum()


class TableSketches:
    """The sketch tier of one :class:`PartitionedTable`.

    Holds lazily built :class:`MergeableQuantileSketch` /
    :class:`NominalCountSketch` instances per ``(shard, attribute)`` pair
    (quantile sketches only for numeric/date columns, nominal sketches
    for every type), plus exact per-shard extrema.  Laziness means only
    queried columns ever pay the summarisation scan.

    Thread safety mirrors :class:`~repro.storage.zonemap.SkippingIndexes`:
    the registries are guarded by a lock, builds happen outside it, and a
    racing double build resolves through ``setdefault`` (sketches are
    deterministic functions of the immutable shard, so either copy is
    correct).
    """

    def __init__(self, partitioned: Any, budget: int = DEFAULT_SKETCH_BUDGET):
        self._partitioned = partitioned
        self._shards: List[Any] = partitioned.shards
        self._budget = max(2, int(budget))
        self._lock = threading.Lock()
        self._quantiles: Dict[Tuple[int, str], MergeableQuantileSketch] = {}
        self._nominals: Dict[Tuple[int, str], NominalCountSketch] = {}
        self._stats: Dict[Tuple[int, str], _ShardStats] = {}

    @property
    def num_partitions(self) -> int:
        return len(self._shards)

    @property
    def budget(self) -> int:
        return self._budget

    # -- lazy structures -------------------------------------------------------

    def quantile_sketch(
        self, shard_index: int, attribute: str
    ) -> Optional[MergeableQuantileSketch]:
        """The (lazily built) quantile sketch of one shard column.

        Only columns with a physical numeric encoding (numeric and date)
        carry quantile sketches; nominal columns return ``None``.
        """
        column = self._shards[shard_index].column(attribute)
        if not isinstance(column, NumericColumn):
            return None
        key = (shard_index, attribute)
        with self._lock:
            sketch = self._quantiles.get(key)
        if sketch is not None:
            return sketch
        sketch = MergeableQuantileSketch.from_values(column.gather(), self._budget)
        with self._lock:
            return self._quantiles.setdefault(key, sketch)

    def nominal_sketch(self, shard_index: int, attribute: str) -> NominalCountSketch:
        """The (lazily built) value-count sketch of one shard column."""
        key = (shard_index, attribute)
        with self._lock:
            sketch = self._nominals.get(key)
        if sketch is not None:
            return sketch
        column = self._shards[shard_index].column(attribute)
        sketch = NominalCountSketch.from_counts(column.value_counts())
        with self._lock:
            return self._nominals.setdefault(key, sketch)

    def shard_stats(self, shard_index: int, attribute: str) -> _ShardStats:
        """Exact extrema and validity tallies of one shard column."""
        key = (shard_index, attribute)
        with self._lock:
            stats = self._stats.get(key)
        if stats is not None:
            return stats
        stats = _ShardStats(self._shards[shard_index].column(attribute))
        with self._lock:
            return self._stats.setdefault(key, stats)

    # -- merged, table-level summaries -----------------------------------------

    def merged_quantile(self, attribute: str) -> Optional[MergeableQuantileSketch]:
        """One table-level quantile sketch merged across every shard."""
        merged: Optional[MergeableQuantileSketch] = None
        for index in range(len(self._shards)):
            sketch = self.quantile_sketch(index, attribute)
            if sketch is None:
                return None
            merged = sketch if merged is None else merged.merge(sketch)
        if merged is None:  # pragma: no cover - a table has >= 1 shard
            merged = MergeableQuantileSketch.empty(self._budget)
        return merged

    def merged_nominal(self, attribute: str) -> NominalCountSketch:
        """One table-level value-count sketch merged across every shard."""
        merged: Optional[NominalCountSketch] = None
        for index in range(len(self._shards)):
            sketch = self.nominal_sketch(index, attribute)
            merged = sketch if merged is None else merged.merge(sketch)
        if merged is None:  # pragma: no cover - a table has >= 1 shard
            merged = NominalCountSketch(DEFAULT_NOMINAL_CAP, {}, 0)
        return merged

    def merged_stats(self, attribute: str) -> Tuple[int, int, Any, Any]:
        """``(rows, valid_rows, minimum, maximum)`` across every shard."""
        rows = valid = 0
        minimum: Any = None
        maximum: Any = None
        for index in range(len(self._shards)):
            stats = self.shard_stats(index, attribute)
            rows += stats.rows
            valid += stats.valid_rows
            if stats.minimum is not None:
                minimum = (
                    stats.minimum
                    if minimum is None or stats.minimum < minimum
                    else minimum
                )
                maximum = (
                    stats.maximum
                    if maximum is None or stats.maximum > maximum
                    else maximum
                )
        return rows, valid, minimum, maximum

    def is_nominal(self, attribute: str) -> bool:
        """Whether the attribute's columns are dictionary-encoded nominals."""
        return isinstance(
            self._shards[0].column(attribute), (StringColumn, BoolColumn)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            quantiles, nominals = len(self._quantiles), len(self._nominals)
        return (
            f"TableSketches(partitions={self.num_partitions}, "
            f"budget={self._budget}, quantile_sketches={quantiles}, "
            f"nominal_sketches={nominals})"
        )
