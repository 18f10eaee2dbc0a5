"""Building blocks for synthetic workload generation.

Every workload in this package is generated rather than downloaded: the
paper's demonstration datasets (the Dutch East India Company shipping
records, the astronomy catalogue) are not distributed with it.  The
generators here provide the statistical structure those datasets exhibit —
categorical attributes driving numeric ones, correlated categories, skewed
(Zipf) popularity, temporal drift — so that HB-cuts has real dependencies
to discover and the INDEP quotient has real independence to certify.

All functions are deterministic given a seed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError

__all__ = [
    "make_rng",
    "batched",
    "zipf_categorical_series",
    "dependent_categorical_series",
    "numeric_from_category",
    "year_series",
]


def make_rng(seed: Optional[int]) -> np.random.Generator:
    """A NumPy random generator for a (possibly None) seed."""
    return np.random.default_rng(seed)


def _validate_rows(rows: int) -> None:
    if rows <= 0:
        raise WorkloadError(f"the number of rows must be positive, got {rows}")


def batched(
    table: Any, batch_size: int, start: int = 0
) -> Iterator[List[Dict[str, Any]]]:
    """Yield a dataset as a stream of append batches of row mappings.

    Turns any table-like object (anything with ``num_rows`` and
    ``row(i)``, i.e. a :class:`~repro.storage.table.Table`) into the
    batch stream a live deployment would receive: each yielded list holds
    at most ``batch_size`` decoded rows, in row order, ready for
    :meth:`repro.live.VersionedTable.append_batch` or a wire-level
    ``ingest``.  ``start`` skips an initial prefix — the idiom for the
    live scenarios and benchmark E16 is to seed an engine with the first
    rows and stream the remainder::

        seed = table.slice_rows(0, 1000)
        for batch in batched(table, 500, start=1000):
            engine.ingest(batch)

    An exhausted (or empty) range yields nothing.
    """
    batch_size = int(batch_size)
    if batch_size <= 0:
        raise WorkloadError(f"batch_size must be positive, got {batch_size}")
    if start < 0:
        raise WorkloadError(f"start cannot be negative, got {start}")
    for begin in range(int(start), table.num_rows, batch_size):
        end = min(begin + batch_size, table.num_rows)
        yield [table.row(index) for index in range(begin, end)]


def categorical_series(
    rng: np.random.Generator,
    rows: int,
    categories: Sequence[str],
    probabilities: Optional[Sequence[float]] = None,
) -> List[str]:
    """Draw a categorical column with the given (or uniform) probabilities."""
    _validate_rows(rows)
    if not categories:
        raise WorkloadError("at least one category is required")
    if probabilities is not None:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.shape[0] != len(categories):
            raise WorkloadError("probabilities and categories must have the same length")
        if probabilities.min() < 0:
            raise WorkloadError("probabilities must be non-negative")
        total = probabilities.sum()
        if total <= 0:
            raise WorkloadError("probabilities must not sum to zero")
        probabilities = probabilities / total
    draws = rng.choice(len(categories), size=rows, p=probabilities)
    return [categories[int(index)] for index in draws]


def zipf_categorical_series(
    rng: np.random.Generator,
    rows: int,
    categories: Sequence[str],
    exponent: float = 1.2,
) -> List[str]:
    """Draw a categorical column with Zipf-distributed popularity.

    The first category is the most popular; the tail decays as
    ``rank^-exponent``.  Used by the weblog workload (URL categories,
    countries) where real traffic is heavily skewed.
    """
    if exponent <= 0:
        raise WorkloadError(f"the Zipf exponent must be positive, got {exponent}")
    ranks = np.arange(1, len(categories) + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return categorical_series(rng, rows, categories, weights)


def dependent_categorical_series(
    rng: np.random.Generator,
    parent_values: Sequence[str],
    mapping: Dict[str, Sequence[str]],
    noise: float = 0.1,
    all_categories: Optional[Sequence[str]] = None,
) -> List[str]:
    """Draw a categorical column whose value depends on a parent column.

    For each row, with probability ``1 - noise`` the child value is drawn
    uniformly from ``mapping[parent]``; with probability ``noise`` it is
    drawn from the full category set, which keeps the dependence
    detectable but not deterministic.
    """
    if not 0.0 <= noise <= 1.0:
        raise WorkloadError(f"noise must lie in [0, 1], got {noise}")
    if all_categories is None:
        seen: Dict[str, None] = {}
        for children in mapping.values():
            for child in children:
                seen.setdefault(child, None)
        all_categories = list(seen)
    if not all_categories:
        raise WorkloadError("the child category set is empty")
    result: List[str] = []
    for parent in parent_values:
        children = mapping.get(parent, all_categories)
        if rng.random() < noise or not children:
            pool = all_categories
        else:
            pool = children
        result.append(pool[int(rng.integers(0, len(pool)))])
    return result


def numeric_from_category(
    rng: np.random.Generator,
    parent_values: Sequence[str],
    means: Dict[str, float],
    spreads: Dict[str, float],
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    integer: bool = False,
) -> List[float]:
    """Draw a numeric column as a per-category Gaussian (category drives value).

    This is the planted dependency the Figure 1 example relies on: the
    boat type determines a tonnage band.
    """
    default_mean = float(np.mean(list(means.values()))) if means else 0.0
    default_spread = float(np.mean(list(spreads.values()))) if spreads else 1.0
    values: List[float] = []
    for parent in parent_values:
        mean = means.get(parent, default_mean)
        spread = max(1e-9, spreads.get(parent, default_spread))
        value = float(rng.normal(mean, spread))
        if minimum is not None:
            value = max(minimum, value)
        if maximum is not None:
            value = min(maximum, value)
        values.append(round(value) if integer else value)
    return values


def year_series(
    rng: np.random.Generator,
    rows: int,
    start: int,
    end: int,
    skew_towards_end: float = 0.0,
) -> List[int]:
    """Draw integer years in ``[start, end]``.

    ``skew_towards_end`` in ``[0, 1]`` biases draws towards the end of the
    interval (data volumes typically grow over time).
    """
    _validate_rows(rows)
    if end < start:
        raise WorkloadError(f"year range is empty: [{start}, {end}]")
    if not 0.0 <= skew_towards_end <= 1.0:
        raise WorkloadError("skew_towards_end must lie in [0, 1]")
    uniform = rng.random(rows)
    if skew_towards_end > 0:
        uniform = uniform ** (1.0 - 0.75 * skew_towards_end)
    span = end - start
    return [int(start + round(u * span)) for u in uniform]
