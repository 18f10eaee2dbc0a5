"""A process-local metrics registry with mergeable latency histograms.

Three instrument kinds, all exported in Prometheus text format by
``GET /v1/metrics`` and as a JSON *metrics document* (the mergeable form
the cluster router fans out for and combines):

* :class:`Counter` — a monotonically increasing count.  Built either
  *owned* (``inc()`` under a lock) or as a *view* over an existing tally
  (a zero-argument callback reading, say, an
  :class:`~repro.storage.engine.OperationCounter` field), so the
  scattered stats the system already keeps become scrapeable without
  double bookkeeping.
* :class:`Gauge` — a point-in-time value (cache entries, pool workers);
  same owned/view split.
* :class:`Histogram` — a latency summary backed by
  :class:`MergeableQuantileSketch`.  Observations are appended to a small
  pending buffer and folded into the sketch lazily (one sort per batch of
  256), and because the sketch is mergeable the router can combine the
  per-node histograms into cluster-wide p50/p95/p99 with an honest rank
  bound.  Non-finite observations are dropped: a NaN has no rank.

The module is pure standard library — the sketch included — because the
cluster router merges and renders these documents and must not load
NumPy to do it.

Instruments are keyed by ``(name, sorted labels)``; asking for the same
key twice returns the same instrument, so modules can register views
idempotently.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["MergeableQuantileSketch", "MetricsRegistry"]

#: Quantiles every histogram exposes in the Prometheus rendering.
SUMMARY_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: Default sketch budget for latency histograms — 128 items keep the
#: rank error of a node-local histogram under ~1% while a full scrape
#: stays a few kilobytes per operation.
DEFAULT_HISTOGRAM_BUDGET = 128

_LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Mapping[str, str]]) -> _LabelsKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: _LabelsKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + body + "}"


class MergeableQuantileSketch:
    """A fixed-budget weighted quantile summary with tracked rank error.

    The sketch holds at most ``budget`` *(value, weight)* items, sorted by
    value, summarising ``total_weight`` underlying finite values.
    ``rank_error`` is an upper bound, maintained exactly, on how far the
    sketch's cumulative weight at any threshold can sit from the true rank:

    * building from ``n`` raw values with stride ``k = ceil(n/budget)``
      keeps every ``k``-th sorted value (centred) at weight ``k`` — at
      any threshold at most one stride block straddles it, so the error
      is at most ``k``;
    * merging concatenates the inputs (errors add) and, over budget,
      re-compacts by cumulative-weight stride ``s = ceil(W/budget)``,
      adding at most ``s`` more.

    Everything is deterministic, so two sketches built from the same data
    are identical and every reported bound is testable exactly.
    """

    __slots__ = ("budget", "values", "weights", "total_weight", "rank_error")

    def __init__(
        self,
        budget: int,
        values: List[float],
        weights: List[int],
        total_weight: int,
        rank_error: int,
    ) -> None:
        self.budget = int(budget)
        self.values = values
        self.weights = weights
        self.total_weight = int(total_weight)
        self.rank_error = int(rank_error)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_values(cls, values: Iterable[float], budget: int) -> "MergeableQuantileSketch":
        """Summarise raw finite values in one sort."""
        budget = max(2, int(budget))
        data = sorted(map(float, values))
        n = len(data)
        if n <= budget:
            return cls(budget, data, [1] * n, n, 0)
        stride = -(-n // budget)  # ceil
        starts = range(0, n, stride)
        stops = [min(start + stride, n) for start in starts]
        return cls(
            budget,
            [data[start + (stop - start - 1) // 2] for start, stop in zip(starts, stops)],
            [stop - start for start, stop in zip(starts, stops)],
            n,
            stride,
        )

    @classmethod
    def empty(cls, budget: int) -> "MergeableQuantileSketch":
        return cls(max(2, int(budget)), [], [], 0, 0)

    # -- merging ---------------------------------------------------------------

    def merge(self, other: "MergeableQuantileSketch") -> "MergeableQuantileSketch":
        """A new sketch summarising the union of both inputs' data.

        Rank errors add; if the combined item count exceeds the (larger)
        budget, a cumulative-weight compaction brings it back under,
        adding its stride to the tracked error.
        """
        budget = max(self.budget, other.budget)
        if other.total_weight == 0:
            return MergeableQuantileSketch(
                budget, self.values, self.weights, self.total_weight, self.rank_error
            )
        if self.total_weight == 0:
            return MergeableQuantileSketch(
                budget, other.values, other.weights, other.total_weight, other.rank_error
            )
        values = self.values + other.values
        weights = self.weights + other.weights
        order = sorted(range(len(values)), key=values.__getitem__)  # stable
        merged = MergeableQuantileSketch(
            budget,
            [values[i] for i in order],
            [weights[i] for i in order],
            self.total_weight + other.total_weight,
            self.rank_error + other.rank_error,
        )
        if len(values) > budget:
            merged = merged._compacted()
        return merged

    def _compacted(self) -> "MergeableQuantileSketch":
        """Re-compact to at most ``budget`` items by weight-stride selection."""
        cumulative = list(accumulate(self.weights))
        total = cumulative[-1]
        stride = -(-total // self.budget)  # ceil
        edges = sorted({min(k * stride, total) for k in range(1, self.budget + 1)})
        starts = [0] + edges[:-1]
        new_weights = [edge - start for start, edge in zip(starts, edges)]
        return MergeableQuantileSketch(
            self.budget,
            [
                self.values[bisect_left(cumulative, start + (weight + 1) // 2)]
                for start, weight in zip(starts, new_weights)
            ],
            new_weights,
            total,
            self.rank_error + stride,
        )

    # -- queries ---------------------------------------------------------------

    @property
    def max_item_weight(self) -> int:
        """Weight of the heaviest retained item (quantile discretisation)."""
        return max(self.weights, default=0)

    @property
    def rank_error_fraction(self) -> float:
        """Reported rank tolerance of a quantile answer, as a fraction.

        Covers both the tracked compaction error and the discretisation of
        landing on a whole retained item.  ``0.0`` for an empty sketch.
        """
        if self.total_weight == 0:
            return 0.0
        return min(1.0, (self.rank_error + self.max_item_weight) / self.total_weight)

    def quantile(self, fraction: float) -> float:
        """The value whose rank is closest to ``fraction``.

        The true rank of the returned value lies within
        ``rank_error_fraction`` of the requested one.  Raises
        :class:`ValueError` on an empty sketch.
        """
        if self.total_weight == 0:
            raise ValueError("quantile of an empty sketch")
        fraction = min(1.0, max(0.0, float(fraction)))
        target = int(round(fraction * (self.total_weight - 1))) + 1
        index = bisect_left(list(accumulate(self.weights)), target)
        return self.values[min(index, len(self.values) - 1)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MergeableQuantileSketch(items={len(self.values)}, "
            f"weight={self.total_weight}, rank_error={self.rank_error})"
        )


class Counter:
    """A monotonically increasing count, owned or a view.

    A *view* counter is constructed with ``fn`` — a zero-argument
    callback returning the current tally from whichever structure already
    owns it; calling :meth:`inc` on a view raises, keeping ownership
    unambiguous.
    """

    __slots__ = ("name", "labels", "help", "_fn", "_lock", "_value")

    def __init__(
        self,
        name: str,
        labels: _LabelsKey,
        help_text: str,
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.help = help_text
        self._fn = fn
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise ValueError(f"counter {self.name!r} is a view; increment its source")
        with self._lock:
            self._value = self._value + float(amount)

    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value, owned (``set``) or a view (callback)."""

    __slots__ = ("name", "labels", "help", "_fn", "_lock", "_value")

    def __init__(
        self,
        name: str,
        labels: _LabelsKey,
        help_text: str,
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.help = help_text
        self._fn = fn
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is a view; set its source")
        with self._lock:
            self._value = float(value)

    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value


class Histogram:
    """A sketch-backed latency summary.

    ``observe`` appends to a pending buffer under the lock; the buffer is
    folded into the :class:`MergeableQuantileSketch` lazily — on scrape,
    or whenever it reaches the fold threshold — so the observation path
    stays an append plus an occasional batch sort.  A non-finite value
    (NaN, ±inf) is dropped, not counted: it has no rank, and one NaN in
    ``_sum`` would poison the histogram for the life of the process.
    """

    __slots__ = ("name", "labels", "help", "budget", "_lock", "_pending", "_sketch", "_count", "_sum")

    #: Pending observations folded into the sketch once this many queue up.
    FOLD_THRESHOLD = 256

    def __init__(
        self,
        name: str,
        labels: _LabelsKey,
        help_text: str,
        budget: int = DEFAULT_HISTOGRAM_BUDGET,
    ) -> None:
        self.name = name
        self.labels = labels
        self.help = help_text
        self.budget = max(2, int(budget))
        self._lock = threading.Lock()
        self._pending: List[float] = []
        self._sketch = MergeableQuantileSketch.empty(self.budget)
        self._count = 0
        self._sum = 0.0

    def observe(self, seconds: float) -> None:
        value = float(seconds)
        if not math.isfinite(value):
            return
        with self._lock:
            self._pending.append(value)
            self._count = self._count + 1
            self._sum = self._sum + value
            if len(self._pending) >= self.FOLD_THRESHOLD:
                self._fold_locked()

    def _fold_locked(self) -> None:
        if not self._pending:
            return
        batch = MergeableQuantileSketch.from_values(self._pending, self.budget)
        self._sketch = self._sketch.merge(batch)
        self._pending = []

    def snapshot(self) -> Tuple[int, float, MergeableQuantileSketch]:
        """``(count, sum, sketch)`` with all pending observations folded."""
        with self._lock:
            self._fold_locked()
            return self._count, self._sum, self._sketch


class MetricsRegistry:
    """A keyed collection of instruments with document/Prometheus output.

    ``namespace`` prefixes every metric name in the rendered output
    (``charles_`` by default), keeping the registry's internal names
    short (``requests_total``) while the exposition stays conventional
    (``charles_requests_total``).
    """

    def __init__(self, namespace: str = "charles") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, _LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, _LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, _LabelsKey], Histogram] = {}

    # -- registration ----------------------------------------------------------

    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> Counter:
        key = (name, _labels_key(labels))
        with self._lock:
            existing = self._counters.get(key)
            if existing is not None:
                if fn is not None:
                    existing._fn = fn  # re-registering a view rebinds its source
                return existing
            created = Counter(name, key[1], help_text, fn=fn)
            self._counters[key] = created
            return created

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        key = (name, _labels_key(labels))
        with self._lock:
            existing = self._gauges.get(key)
            if existing is not None:
                if fn is not None:
                    existing._fn = fn
                return existing
            created = Gauge(name, key[1], help_text, fn=fn)
            self._gauges[key] = created
            return created

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
        budget: int = DEFAULT_HISTOGRAM_BUDGET,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        with self._lock:
            existing = self._histograms.get(key)
            if existing is not None:
                return existing
            created = Histogram(name, key[1], help_text, budget=budget)
            self._histograms[key] = created
            return created

    # -- output ----------------------------------------------------------------

    def to_document(self) -> Dict[str, Any]:
        """The registry as a JSON-safe, *mergeable* metrics document."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        document: Dict[str, Any] = {"counters": [], "gauges": [], "histograms": []}
        for counter in counters:
            document["counters"].append(
                {
                    "name": counter.name,
                    "labels": dict(counter.labels),
                    "help": counter.help,
                    "value": counter.value(),
                }
            )
        for gauge in gauges:
            document["gauges"].append(
                {
                    "name": gauge.name,
                    "labels": dict(gauge.labels),
                    "help": gauge.help,
                    "value": gauge.value(),
                }
            )
        for histogram in histograms:
            count, total, sketch = histogram.snapshot()
            document["histograms"].append(
                {
                    "name": histogram.name,
                    "labels": dict(histogram.labels),
                    "help": histogram.help,
                    "count": count,
                    "sum": total,
                    "budget": sketch.budget,
                    "values": list(sketch.values),
                    "weights": list(sketch.weights),
                    "total_weight": sketch.total_weight,
                    "rank_error": sketch.rank_error,
                }
            )
        return document

    def render_prometheus(self) -> str:
        """This registry in Prometheus text exposition format."""
        return render_document(self.to_document(), namespace=self.namespace)

    # -- merging ---------------------------------------------------------------

    @staticmethod
    def merge_documents(documents: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
        """Combine per-node metrics documents into one cluster document.

        Counters and gauges sum by ``(name, labels)`` (a summed gauge is
        the cluster total — entries across nodes, workers across pools);
        histograms merge their quantile sketches, so the combined
        percentile lines carry an honest, tracked rank bound.
        """
        counters: Dict[Tuple[str, _LabelsKey], Dict[str, Any]] = {}
        gauges: Dict[Tuple[str, _LabelsKey], Dict[str, Any]] = {}
        histograms: Dict[Tuple[str, _LabelsKey], Dict[str, Any]] = {}
        for document in documents:
            for row in document.get("counters", []):
                key = (str(row["name"]), _labels_key(row.get("labels")))
                slot = counters.get(key)
                if slot is None:
                    counters[key] = dict(row)
                else:
                    slot["value"] = float(slot["value"]) + float(row["value"])
            for row in document.get("gauges", []):
                key = (str(row["name"]), _labels_key(row.get("labels")))
                slot = gauges.get(key)
                if slot is None:
                    gauges[key] = dict(row)
                else:
                    slot["value"] = float(slot["value"]) + float(row["value"])
            for row in document.get("histograms", []):
                key = (str(row["name"]), _labels_key(row.get("labels")))
                slot = histograms.get(key)
                if slot is None:
                    histograms[key] = dict(row)
                    continue
                merged = _sketch_from_row(slot).merge(_sketch_from_row(row))
                slot["count"] = int(slot["count"]) + int(row["count"])
                slot["sum"] = float(slot["sum"]) + float(row["sum"])
                slot["budget"] = merged.budget
                slot["values"] = list(merged.values)
                slot["weights"] = list(merged.weights)
                slot["total_weight"] = merged.total_weight
                slot["rank_error"] = merged.rank_error
        return {
            "counters": [counters[key] for key in sorted(counters)],
            "gauges": [gauges[key] for key in sorted(gauges)],
            "histograms": [histograms[key] for key in sorted(histograms)],
        }


def _sketch_from_row(row: Mapping[str, Any]) -> MergeableQuantileSketch:
    """Reconstruct a quantile sketch from its document row."""
    return MergeableQuantileSketch(
        int(row.get("budget", DEFAULT_HISTOGRAM_BUDGET)),
        [float(v) for v in row.get("values", [])],
        [int(w) for w in row.get("weights", [])],
        int(row.get("total_weight", 0)),
        int(row.get("rank_error", 0)),
    )


def render_document(document: Mapping[str, Any], namespace: str = "charles") -> str:
    """Render a metrics document (local or merged) as Prometheus text.

    Histograms render as summaries: one ``quantile=...`` line per entry
    of :data:`SUMMARY_QUANTILES` plus ``_sum`` and ``_count``.
    """
    prefix = f"{namespace}_" if namespace else ""
    lines: List[str] = []
    for row in document.get("counters", []):
        name = f"{prefix}{row['name']}"
        if row.get("help"):
            lines.append(f"# HELP {name} {row['help']}")
        lines.append(f"# TYPE {name} counter")
        labels = _render_labels(_labels_key(row.get("labels")))
        lines.append(f"{name}{labels} {_format_value(row['value'])}")
    for row in document.get("gauges", []):
        name = f"{prefix}{row['name']}"
        if row.get("help"):
            lines.append(f"# HELP {name} {row['help']}")
        lines.append(f"# TYPE {name} gauge")
        labels = _render_labels(_labels_key(row.get("labels")))
        lines.append(f"{name}{labels} {_format_value(row['value'])}")
    for row in document.get("histograms", []):
        name = f"{prefix}{row['name']}"
        if row.get("help"):
            lines.append(f"# HELP {name} {row['help']}")
        lines.append(f"# TYPE {name} summary")
        key = _labels_key(row.get("labels"))
        sketch = _sketch_from_row(row)
        for fraction in SUMMARY_QUANTILES:
            if sketch.total_weight:
                value = sketch.quantile(fraction)
            else:
                value = float("nan")
            labels = _render_labels(key, extra=("quantile", _format_value(fraction)))
            lines.append(f"{name}{labels} {_format_value(value)}")
        labels = _render_labels(key)
        lines.append(f"{name}_sum{labels} {_format_value(row['sum'])}")
        lines.append(f"{name}_count{labels} {int(row['count'])}")
    return "\n".join(lines) + "\n"


def _format_value(value: Any) -> str:
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)
