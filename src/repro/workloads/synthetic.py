"""Parametric synthetic tables with controlled dependency structure.

The benchmarks need datasets whose ground truth is known exactly: a pair
of columns with a tunable dependence strength (Proposition 1, E4), many
attributes with planted dependent pairs (horizontal scalability, E5), and
specific value distributions (Gaussian, Zipf) for the quantile-cut study
(E10).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.workloads.generators import make_rng

__all__ = [
    "make_dependent_pair_table",
    "make_wide_table",
    "make_gaussian_table",
    "make_zipf_table",
]


def make_dependent_pair_table(
    rows: int = 2000,
    strength: float = 1.0,
    cardinality: int = 4,
    seed: Optional[int] = 0,
    name: str = "dependent_pair",
) -> Table:
    """Two categorical columns ``x`` and ``y`` with tunable dependence.

    ``strength`` interpolates between full independence (0.0) and a
    deterministic one-to-one mapping (1.0): with probability ``strength``
    the row's ``y`` copies the category index of ``x``, otherwise it is
    drawn uniformly.  A third independent column ``z`` is included so the
    table also exercises the "leave independent attributes alone"
    behaviour.
    """
    if not 0.0 <= strength <= 1.0:
        raise WorkloadError(f"strength must lie in [0, 1], got {strength}")
    if cardinality < 2:
        raise WorkloadError("cardinality must be at least 2")
    rng = make_rng(seed)
    x_codes = rng.integers(0, cardinality, size=rows)
    copy_mask = rng.random(rows) < strength
    y_random = rng.integers(0, cardinality, size=rows)
    y_codes = np.where(copy_mask, x_codes, y_random)
    z_codes = rng.integers(0, cardinality, size=rows)
    data = {
        "x": [f"x{int(v)}" for v in x_codes],
        "y": [f"y{int(v)}" for v in y_codes],
        "z": [f"z{int(v)}" for v in z_codes],
    }
    return Table.from_dict(data, name=name)


def make_wide_table(
    rows: int = 2000,
    attributes: int = 8,
    dependent_pairs: int = 2,
    cardinality: int = 4,
    seed: Optional[int] = 0,
    name: str = "wide",
) -> Table:
    """A table with many attributes, some of them pairwise dependent.

    The first ``2 * dependent_pairs`` columns form dependent pairs
    ``(c0, c1), (c2, c3), ...`` (each pair shares its category index 85% of
    the time); the remaining columns are independent.  Used by the
    horizontal-scalability bench (E5).
    """
    if attributes < 2:
        raise WorkloadError("at least two attributes are required")
    if dependent_pairs * 2 > attributes:
        raise WorkloadError("too many dependent pairs for the number of attributes")
    rng = make_rng(seed)
    data = {}
    column = 0
    for _ in range(dependent_pairs):
        base = rng.integers(0, cardinality, size=rows)
        copy_mask = rng.random(rows) < 0.85
        partner = np.where(copy_mask, base, rng.integers(0, cardinality, size=rows))
        data[f"c{column}"] = [f"p{int(v)}" for v in base]
        data[f"c{column + 1}"] = [f"q{int(v)}" for v in partner]
        column += 2
    while column < attributes:
        draws = rng.integers(0, cardinality, size=rows)
        data[f"c{column}"] = [f"r{int(v)}" for v in draws]
        column += 1
    return Table.from_dict(data, name=name)


def make_gaussian_table(
    rows: int = 5000,
    mean: float = 100.0,
    std: float = 15.0,
    seed: Optional[int] = 0,
    name: str = "gaussian",
) -> Table:
    """One Gaussian numeric column ``value`` plus a label column.

    The paper's Section 5.2 example: a Gaussian ``size`` attribute whose
    dense middle third can never be isolated by median cuts alone.
    """
    rng = make_rng(seed)
    values = rng.normal(mean, std, size=rows)
    labels = ["dense" if abs(v - mean) < std / 2 else "tail" for v in values]
    data = {
        "value": [float(round(v, 3)) for v in values],
        "region": labels,
    }
    return Table.from_dict(data, name=name, types={"value": DataType.FLOAT})


def make_zipf_table(
    rows: int = 5000,
    exponent: float = 1.5,
    categories: int = 20,
    seed: Optional[int] = 0,
    name: str = "zipf",
) -> Table:
    """A heavily skewed categorical column plus a dependent numeric column."""
    if exponent <= 0:
        raise WorkloadError("the Zipf exponent must be positive")
    if categories < 2:
        raise WorkloadError("at least two categories are required")
    rng = make_rng(seed)
    ranks = np.arange(1, categories + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    weights /= weights.sum()
    codes = rng.choice(categories, size=rows, p=weights)
    values = [float(round(rng.normal(10.0 * (code + 1), 3.0), 3)) for code in codes]
    data = {
        "category": [f"item-{int(code):02d}" for code in codes],
        "score": values,
    }
    return Table.from_dict(data, name=name, types={"score": DataType.FLOAT})
