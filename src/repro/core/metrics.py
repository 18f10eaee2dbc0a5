"""Quality metrics for segmentations (paper, Section 3 and Proposition 1).

The paper ranks segmentations along four orthogonal criteria:

* **homogeneity** — deliberately *not* quantified (the heuristic is
  responsible for producing "good enough" groups); a cheap proxy is still
  provided for the baseline study (E9);
* **simplicity** ``P(S)`` — the maximum number of constraints among the
  segmentation's queries (lower is simpler / more legible);
* **breadth** — the number of distinct columns across the queries
  (higher is more informative);
* **entropy** ``E(S) = -Σ C(Qj) · log C(Qj)`` — grows with the number of
  queries and with how balanced they are.

Proposition 1 links the entropy of an SDL product to variable dependence:
``E(S1 × S2) = E(S1) + E(S2)`` iff the segment variables are independent.
``INDEP(S1, S2) = E(S1 × S2) / (E(S1) + E(S2))`` decreases with the degree
of dependence and drives the HB-cuts composition order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable

from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation
from repro.backends.base import ExecutionBackend

__all__ = [
    "entropy",
    "max_entropy",
    "balance",
    "simplicity",
    "breadth",
    "cover",
    "indep",
    "crosstab_indep",
    "indep_from_entropies",
    "homogeneity_proxy",
    "SegmentationScores",
    "score_segmentation",
]


def entropy(segmentation: Segmentation) -> float:
    """``E(S) = -Σ C(Qj) · log C(Qj)`` with covers relative to the context.

    Natural logarithm.  The value is 0 for a single-piece segmentation and
    reaches ``log M`` for ``M`` perfectly balanced segments (paper,
    Definition 4).
    """
    return count_entropy(segmentation.counts, segmentation.context_count)


def count_entropy(counts: Iterable[int], total: int) -> float:
    """The entropy of pieces of ``counts`` rows among ``total``, in order.

    Zero counts are skipped, so the entropy of a contingency table read
    row-major equals that of the product segmentation built from it
    (:func:`entropy`), bit for bit.
    """
    value = 0.0
    if total > 0:
        for count in counts:
            if count > 0:
                cover_j = count / total
                value -= cover_j * math.log(cover_j)
    return value


def max_entropy(segmentation: Segmentation) -> float:
    """``log M``: the entropy of a perfectly balanced M-piece segmentation."""
    pieces = sum(1 for count in segmentation.counts if count > 0)
    return math.log(pieces) if pieces > 1 else 0.0


def balance(segmentation: Segmentation) -> float:
    """Normalised entropy ``E(S) / log M`` in ``[0, 1]`` (1 = perfectly balanced)."""
    upper = max_entropy(segmentation)
    if upper == 0.0:
        return 1.0
    return entropy(segmentation) / upper


def simplicity(segmentation: Segmentation) -> int:
    """``P(S)``: the maximum number of constraints among the queries.

    The paper measures the *complexity* of a segmentation this way and asks
    for it to be as low as possible (Principle 1).  Constraints already
    present in the context are not charged to the segmentation, since the
    interface only displays the added predicates.
    """
    context_predicates = set(segmentation.context.predicates)
    return max(
        (
            sum(
                1
                for predicate in query.predicates
                if predicate.is_constrained and predicate not in context_predicates
            )
            for query in segmentation.queries
        ),
        default=0,
    )


def breadth(segmentation: Segmentation) -> int:
    """The number of distinct columns across the segmentation's queries (Principle 2)."""
    return len(segmentation.attributes)


def cover(engine: ExecutionBackend, query: SDLQuery) -> float:
    """The cover ``C(Q) = |R(Q)| / |T|`` (the paper's Definition); an empty
    table gives 0."""
    rows = engine.num_rows
    return engine.count(query) / rows if rows else 0.0


def indep_from_entropies(
    product_entropy: float, first_entropy: float, second_entropy: float
) -> float:
    """``INDEP = E(S1 × S2) / (E(S1) + E(S2))``, defined as 1.0 when the denominator is 0."""
    denominator = first_entropy + second_entropy
    if denominator <= 0.0:
        return 1.0
    return product_entropy / denominator


def indep(engine: ExecutionBackend, first: Segmentation, second: Segmentation) -> float:
    """``INDEP(S1, S2)`` (Proposition 1), from one ``crosstab`` call.

    The quotient equals 1 for independent variables and decreases with the
    degree of dependence.
    """
    return crosstab_indep(engine.crosstab(first, second), first, second)


def crosstab_indep(
    table: Iterable[Iterable[int]], first: Segmentation, second: Segmentation
) -> float:
    """``INDEP`` of ``first × second`` from its contingency table.

    The product's entropy sums the cells row-major, skipping zeros — the
    product segmentation's own order, so the value is that of
    ``E(S1 × S2)`` bit for bit.  A product that holds no row (two
    attributes never both set) reads 1.0, as a zero denominator does.
    """
    cells = [count for row in table for count in row]
    if not any(cells):
        return 1.0
    return indep_from_entropies(
        count_entropy(cells, first.context_count), entropy(first), entropy(second)
    )


def homogeneity_proxy(engine: ExecutionBackend, segmentation: Segmentation) -> float:
    """A cheap homogeneity proxy: mean within-segment concentration.

    The paper purposely does not quantify homogeneity; this proxy exists
    only so the baseline study (E9) can report *something* comparable: for
    every segment and every cut attribute it measures how concentrated the
    attribute's distribution is inside the segment relative to the context
    (1 - normalised entropy), averaged with segment covers as weights.
    Returns 1.0 when there is nothing to measure.
    """
    attributes = segmentation.cut_attributes or segmentation.attributes
    if not attributes:
        return 1.0
    total_weight = 0.0
    accumulated = 0.0
    for segment, weight in zip(segmentation.segments, segmentation.covers):
        if segment.count == 0 or weight == 0.0:
            continue
        for attribute in attributes:
            frequencies = engine.value_frequencies(attribute, segment.query)
            distinct = len(frequencies)
            if distinct <= 1:
                concentration = 1.0
            else:
                total = sum(frequencies.values())
                segment_entropy = -sum(
                    (count / total) * math.log(count / total)
                    for count in frequencies.values()
                    if count > 0
                )
                concentration = 1.0 - segment_entropy / math.log(distinct)
            accumulated += weight * concentration
            total_weight += weight
    if total_weight == 0.0:
        return 1.0
    return accumulated / total_weight


@dataclass(frozen=True)
class SegmentationScores:
    """All quality metrics of one segmentation, bundled for ranking and reports."""

    entropy: float
    max_entropy: float
    balance: float
    simplicity: int
    breadth: int
    depth: int
    covered_fraction: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "entropy": self.entropy,
            "max_entropy": self.max_entropy,
            "balance": self.balance,
            "simplicity": float(self.simplicity),
            "breadth": float(self.breadth),
            "depth": float(self.depth),
            "covered_fraction": self.covered_fraction,
        }


def score_segmentation(segmentation: Segmentation) -> SegmentationScores:
    """Compute every count-derived metric of a segmentation in one pass."""
    covered = (
        segmentation.covered_count / segmentation.context_count
        if segmentation.context_count
        else 0.0
    )
    return SegmentationScores(
        entropy=entropy(segmentation),
        max_entropy=max_entropy(segmentation),
        balance=balance(segmentation),
        simplicity=simplicity(segmentation),
        breadth=breadth(segmentation),
        depth=segmentation.depth,
        covered_fraction=covered,
    )
