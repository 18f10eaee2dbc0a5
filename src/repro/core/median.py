"""Median-point selection for the CUT primitive (paper, Definition 5).

The CUT operator splits a query in two along one attribute, at the
attribute's *median point* over the query's result set.  How the median
point is computed depends on the data type:

* **numeric, real and date columns** use the arithmetic median;
* **nominal columns** are ordered *by frequency of occurrence* when their
  cardinality is low and *alphabetically* otherwise, and the split point
  is the value at which the accumulated frequency is closest to 50%.

This module computes a :class:`SplitSpec` — the pair of predicates
(``[min, med[`` and ``[med, max]`` for numeric data, two complementary
value sets for nominal data) that the CUT primitive then conjoins with the
query being split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.errors import CannotCutError, EmptyColumnError
from repro.sdl.predicates import Predicate, RangePredicate, SetPredicate
from repro.sdl.query import SDLQuery
from repro.backends.base import ExecutionBackend

__all__ = ["median_split", "nominal_value_order"]

#: Below this number of distinct values a nominal column is ordered by
#: frequency of occurrence; at or above it, alphabetically (Definition 5:
#: "sort the values by order of occurrence for columns with low
#: cardinality, and alphabetically otherwise").  A dozen matches the
#: paper's recurring "a pie chart with more than a dozen slices is hard to
#: read" bound.
_LOW_CARDINALITY = 12


@dataclass(frozen=True)
class SplitSpec:
    """The outcome of median-point selection on one attribute.

    Attributes
    ----------
    attribute:
        The attribute being split.
    kind:
        ``"range"`` for numeric/date splits, ``"set"`` for nominal splits.
    lower, upper:
        The two complementary predicates.
    split_point:
        The numeric median (range splits) or the last value of the lower
        group (set splits); informational.
    """

    attribute: str
    kind: str
    lower: Predicate
    upper: Predicate

    split_point: Any = None

    @property
    def predicates(self) -> Tuple[Predicate, Predicate]:
        return (self.lower, self.upper)


def nominal_value_order(frequencies: dict) -> List[Any]:
    """Order nominal values per Definition 5.

    Low-cardinality columns are ordered by decreasing frequency (ties broken
    alphabetically for determinism); high-cardinality columns alphabetically.
    """
    values = list(frequencies)
    if len(values) < _LOW_CARDINALITY:
        return sorted(values, key=lambda v: (-frequencies[v], str(v)))
    return sorted(values, key=str)


def nominal_split_point(ordered_values: List[Any], frequencies: dict) -> int:
    """Index ``k`` such that the first ``k`` ordered values accumulate closest to 50%.

    Returns a split index in ``[1, len(values) - 1]`` so both groups are
    non-empty.
    """
    total = sum(frequencies[value] for value in ordered_values)
    if total == 0:
        raise CannotCutError(
            "nominal", "no occurrences to split"
        )  # pragma: no cover - guarded by callers
    best_index = 1
    best_distance = None
    cumulative = 0
    for position, value in enumerate(ordered_values[:-1], start=1):
        cumulative += frequencies[value]
        distance = abs(cumulative / total - 0.5)
        if best_distance is None or distance < best_distance:
            best_distance = distance
            best_index = position
    return best_index


def median_split(engine: ExecutionBackend, query: SDLQuery, attribute: str) -> SplitSpec:
    """Compute the two complementary predicates that cut ``query`` on ``attribute``.

    Raises
    ------
    CannotCutError
        When the attribute has fewer than two distinct values over the
        query's result set (none at all where it is NULL on every row), or
        the result set is empty.
    """
    numeric = engine.is_numeric(attribute)
    count = engine.count(query)
    if count == 0:
        raise CannotCutError(attribute, "the query selects no rows")

    if numeric:
        return _numeric_split(engine, query, attribute)
    return _nominal_split(engine, query, attribute)


def cut_range(engine: ExecutionBackend, query: SDLQuery, attribute: str) -> Tuple[Any, Any]:
    """The attribute's minimum and maximum over the query's result set.

    Raises
    ------
    CannotCutError
        When no value (the attribute is NULL on every row) or a single
        distinct value remains: there is nothing to split.
    """
    try:
        minimum, maximum = engine.minmax(attribute, query)
    except EmptyColumnError as error:
        raise CannotCutError(attribute, "no value remains") from error
    if minimum == maximum:
        raise CannotCutError(attribute, "a single distinct value remains")
    return minimum, maximum


def _numeric_split(engine: ExecutionBackend, query: SDLQuery, attribute: str) -> SplitSpec:
    minimum, maximum = cut_range(engine, query, attribute)
    median = engine.median(attribute, query)
    split_point = median
    if split_point <= minimum:
        # More than half of the mass sits on the minimum value: the paper's
        # [min, med[ piece would be empty.  Move the split point up to the
        # smallest distinct value above the minimum so both pieces are
        # non-empty.
        split_point = _smallest_above(engine, query, attribute, minimum)
        if split_point is None:
            raise CannotCutError(attribute, "no value above the minimum")
    lower = RangePredicate(
        attribute, low=minimum, high=split_point, include_low=True, include_high=False
    )
    upper = RangePredicate(
        attribute, low=split_point, high=maximum, include_low=True, include_high=True
    )
    return SplitSpec(
        attribute=attribute,
        kind="range",
        lower=lower,
        upper=upper,
        split_point=split_point,
    )


def _smallest_above(
    engine: ExecutionBackend, query: SDLQuery, attribute: str, minimum: Any
) -> Optional[Any]:
    frequencies = engine.value_frequencies(attribute, query)
    candidates = [value for value in frequencies if value > minimum]
    if not candidates:
        return None
    return min(candidates)


def _nominal_split(engine: ExecutionBackend, query: SDLQuery, attribute: str) -> SplitSpec:
    frequencies = engine.value_frequencies(attribute, query)
    if len(frequencies) < 2:
        raise CannotCutError(attribute, "fewer than two distinct values remain")
    ordered = nominal_value_order(frequencies)
    split_index = nominal_split_point(ordered, frequencies)
    lower_values = frozenset(ordered[:split_index])
    upper_values = frozenset(ordered[split_index:])
    lower = SetPredicate(attribute, lower_values)
    upper = SetPredicate(attribute, upper_values)
    return SplitSpec(
        attribute=attribute,
        kind="set",
        lower=lower,
        upper=upper,
        split_point=ordered[split_index - 1],
    )
