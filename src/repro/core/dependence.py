"""Dependence estimation between segmentations.

HB-cuts composes the *most dependent* pair of candidate segmentations at
every iteration, and stops when the remaining candidates look independent.
The paper uses the entropy quotient ``INDEP`` with a fixed threshold of
0.99, and mentions that the threshold could "possibly" be set through
statistical hypothesis testing.  This module provides both:

* information-theoretic measures computed from the product contingency
  table (mutual information, normalised INDEP);
* a chi-square independence test with p-values, plus Cramér's V as an
  effect size, usable as an alternative stopping rule (ablation E7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sdl.segmentation import Segmentation
from repro.backends.base import ExecutionBackend
from repro.core.product import product_counts

__all__ = [
    "contingency_table",
    "mutual_information",
    "cramers_v",
    "chi_square_test",
    "analyse_dependence",
]


def contingency_table(
    engine: ExecutionBackend, first: Segmentation, second: Segmentation
) -> np.ndarray:
    """The ``K × L`` contingency table of two segmentations of the same context."""
    return np.asarray(product_counts(engine, first, second), dtype=np.float64)


def _entropy_from_probabilities(probabilities: np.ndarray) -> float:
    positive = probabilities[probabilities > 0]
    return float(-(positive * np.log(positive)).sum())


def indep_from_table(table: np.ndarray) -> float:
    """``INDEP`` computed directly from a contingency table.

    Equivalent to ``E(S1 × S2) / (E(S1) + E(S2))`` where the entropies are
    taken over the table's joint and marginal distributions.
    """
    table = np.asarray(table, dtype=np.float64)
    total = table.sum()
    if total <= 0:
        return 1.0
    joint = table / total
    joint_entropy = _entropy_from_probabilities(joint.ravel())
    row_entropy = _entropy_from_probabilities(joint.sum(axis=1))
    column_entropy = _entropy_from_probabilities(joint.sum(axis=0))
    denominator = row_entropy + column_entropy
    if denominator <= 0:
        return 1.0
    return joint_entropy / denominator


def mutual_information(table: np.ndarray) -> float:
    """Mutual information I(X; Y) (nats) of the contingency table.

    Related to INDEP by ``I = E(S1) + E(S2) - E(S1 × S2)``, i.e.
    ``INDEP = 1 - I / (E(S1) + E(S2))`` when the denominator is positive.
    """
    table = np.asarray(table, dtype=np.float64)
    total = table.sum()
    if total <= 0:
        return 0.0
    joint = table / total
    joint_entropy = _entropy_from_probabilities(joint.ravel())
    row_entropy = _entropy_from_probabilities(joint.sum(axis=1))
    column_entropy = _entropy_from_probabilities(joint.sum(axis=0))
    return max(0.0, row_entropy + column_entropy - joint_entropy)


def _expected_counts(table: np.ndarray) -> np.ndarray:
    total = table.sum()
    if total <= 0:
        return np.zeros_like(table)
    row_sums = table.sum(axis=1, keepdims=True)
    column_sums = table.sum(axis=0, keepdims=True)
    return row_sums @ column_sums / total


def _chi2_sf(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square distribution.

    ``scipy.special.chdtrc`` is the function ``scipy.stats.chi2.sf``
    dispatches to, so p-values equal SciPy's bit for bit.  It is imported
    here because only the hypothesis-test stopping rule reaches it: a
    process advising under the default INDEP rule loads no SciPy module,
    and ``scipy.stats`` (most of the package's import cost) is never needed.
    """
    from scipy.special import chdtrc

    # Below 0, chi2.sf is 1 and chdtrc NaN.
    return float(chdtrc(dof, max(statistic, 0.0)))


def chi_square_test(table: np.ndarray) -> Tuple[float, float, int]:
    """Pearson chi-square independence test.

    Returns ``(statistic, p_value, degrees_of_freedom)``.  Cells with zero
    expected counts are skipped (their observed counts are necessarily
    zero as well).
    """
    table = np.asarray(table, dtype=np.float64)
    expected = _expected_counts(table)
    mask = expected > 0
    statistic = float(((table[mask] - expected[mask]) ** 2 / expected[mask]).sum())
    rows = int((table.sum(axis=1) > 0).sum())
    columns = int((table.sum(axis=0) > 0).sum())
    dof = max(1, (rows - 1) * (columns - 1))
    p_value = _chi2_sf(statistic, dof)
    return statistic, p_value, dof


def cramers_v(table: np.ndarray) -> float:
    """Cramér's V effect size in ``[0, 1]`` (0 = independent)."""
    table = np.asarray(table, dtype=np.float64)
    total = table.sum()
    if total <= 0:
        return 0.0
    statistic, _, _ = chi_square_test(table)
    rows = int((table.sum(axis=1) > 0).sum())
    columns = int((table.sum(axis=0) > 0).sum())
    smallest_side = min(rows - 1, columns - 1)
    if smallest_side <= 0:
        return 0.0
    return float(math.sqrt(statistic / (total * smallest_side)))


@dataclass(frozen=True)
class DependenceReport:
    """Every dependence measure for one pair of segmentations."""

    indep: float
    mutual_information: float
    chi_square: float
    p_value: float
    degrees_of_freedom: int
    cramers_v: float

    def is_dependent(self, alpha: float = 0.01) -> bool:
        """Statistical-test verdict: reject independence at level ``alpha``."""
        return self.p_value < alpha


def analyse_dependence(
    engine: ExecutionBackend, first: Segmentation, second: Segmentation
) -> DependenceReport:
    """Compute the full dependence report for a pair of segmentations."""
    table = contingency_table(engine, first, second)
    statistic, p_value, dof = chi_square_test(table)
    return DependenceReport(
        indep=indep_from_table(table),
        mutual_information=mutual_information(table),
        chi_square=statistic,
        p_value=p_value,
        degrees_of_freedom=dof,
        cramers_v=cramers_v(table),
    )

