"""Quantile cuts beyond the median (paper, Section 5.2).

The paper calls median-only cuts "a serious limitation": a Gaussian
attribute's dense middle third, for example, can never appear as a single
segment.  This extension generalises CUT to arbitrary quantile lists —
terciles, quartiles, or any monotone sequence in ``(0, 1)`` — producing a
``k``-way split on one attribute.  Benchmark E10 compares it against
binary median cuts on skewed data.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.errors import CannotCutError, PredicateError
from repro.sdl.predicates import RangePredicate, SetPredicate
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segment, Segmentation
from repro.backends.base import ExecutionBackend
from repro.core.median import (
    DEFAULT_LOW_CARDINALITY_THRESHOLD,
    nominal_value_order,
)

__all__ = ["quantile_cut_query"]


def quantile_points(values: Sequence[Any], quantiles: Sequence[float]) -> List[Any]:
    """Nearest-rank quantile values of a sorted-able collection.

    Duplicate split points (possible on heavily-skewed data) are removed so
    the resulting intervals stay non-degenerate.
    """
    if not values:
        raise CannotCutError("quantile", "no values to split")
    for q in quantiles:
        if not 0.0 < q < 1.0:
            raise CannotCutError("quantile", f"quantile {q} outside (0, 1)")
    ordered = sorted(values)
    points: List[Any] = []
    for q in quantiles:
        position = int(round(q * (len(ordered) - 1)))
        point = ordered[position]
        if not points or point != points[-1]:
            points.append(point)
    return points


def quantile_cut_query(
    engine: ExecutionBackend,
    query: SDLQuery,
    attribute: str,
    quantiles: Sequence[float] = (1.0 / 3.0, 2.0 / 3.0),
    low_cardinality_threshold: int = DEFAULT_LOW_CARDINALITY_THRESHOLD,
    drop_empty: bool = True,
) -> Segmentation:
    """Split a query into ``len(quantiles) + 1`` pieces along one attribute.

    Numeric attributes are split at the value quantiles; intervals are
    half-open ``[q_i, q_{i+1}[`` except the last, which is closed, so the
    pieces partition the extent exactly like the paper's median cut does.
    Nominal attributes are split into consecutive groups of the Definition
    5 ordering whose cumulative frequencies are closest to the requested
    quantiles.

    Raises
    ------
    CannotCutError
        When fewer than two non-empty pieces can be formed.
    """
    quantiles = sorted(set(float(q) for q in quantiles))
    if not quantiles:
        raise CannotCutError(attribute, "no quantiles given")
    context_count = engine.count(query)
    if context_count == 0:
        raise CannotCutError(attribute, "the query selects no rows")
    if engine.is_numeric(attribute):
        predicates = _numeric_quantile_predicates(engine, query, attribute, quantiles)
    else:
        predicates = _nominal_quantile_predicates(
            engine, query, attribute, quantiles, low_cardinality_threshold
        )

    segments: List[Segment] = []
    for predicate in predicates:
        try:
            piece = query.refine(predicate)
        except PredicateError as error:
            raise CannotCutError(attribute, str(error)) from error
        if piece is None:
            continue
        count = engine.count(piece)
        if drop_empty and count == 0:
            continue
        segments.append(Segment(piece, count))
    if len(segments) < 2:
        raise CannotCutError(attribute, "quantile cut produced fewer than two pieces")
    return Segmentation(
        context=query,
        segments=segments,
        context_count=context_count,
        cut_attributes=(attribute,),
    )


def _numeric_quantile_predicates(
    engine: ExecutionBackend,
    query: SDLQuery,
    attribute: str,
    quantiles: Sequence[float],
) -> List[RangePredicate]:
    minimum, maximum = engine.minmax(attribute, query)
    if minimum == maximum:
        raise CannotCutError(attribute, "a single distinct value remains")
    # Reconstruct the selected multiset from the backend's histogram, so
    # quantile points need no access to raw rows or selection masks.
    values: List[Any] = []
    for value, count in engine.value_frequencies(attribute, query).items():
        values.extend([value] * count)
    points = [p for p in quantile_points(values, quantiles) if minimum < p <= maximum]
    if not points:
        # All requested quantiles collapse onto the minimum (heavily skewed
        # data).  Fall back to a single split at the smallest value above
        # the minimum so the cut still produces two non-empty pieces.
        above = sorted({v for v in values if v > minimum})
        if not above:
            raise CannotCutError(attribute, "all quantile points collapse onto the minimum")
        points = [above[0]]
    bounds = [minimum, *points, maximum]
    predicates: List[RangePredicate] = []
    for index in range(len(bounds) - 1):
        low, high = bounds[index], bounds[index + 1]
        if low > high or (low == high and index < len(bounds) - 2):
            continue
        is_last = index == len(bounds) - 2
        predicates.append(
            RangePredicate(
                attribute,
                low=low,
                high=high,
                include_low=True,
                include_high=is_last,
            )
        )
    return predicates


def _nominal_quantile_predicates(
    engine: ExecutionBackend,
    query: SDLQuery,
    attribute: str,
    quantiles: Sequence[float],
    low_cardinality_threshold: int,
) -> List[SetPredicate]:
    frequencies = engine.value_frequencies(attribute, query)
    if len(frequencies) < 2:
        raise CannotCutError(attribute, "fewer than two distinct values remain")
    ordered = nominal_value_order(frequencies, low_cardinality_threshold)
    total = sum(frequencies[value] for value in ordered)
    targets = list(quantiles)
    groups: List[List[Any]] = [[]]
    cumulative = 0
    target_index = 0
    for value in ordered:
        groups[-1].append(value)
        cumulative += frequencies[value]
        while target_index < len(targets) and cumulative / total >= targets[target_index]:
            target_index += 1
            if value is not ordered[-1]:
                groups.append([])
    groups = [group for group in groups if group]
    if len(groups) < 2:
        raise CannotCutError(attribute, "quantile targets collapse into a single group")
    return [SetPredicate(attribute, frozenset(group)) for group in groups]

