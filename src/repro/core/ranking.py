"""Ranking of candidate segmentations.

The paper's three principles (simplicity, breadth, entropy) "create a
3-dimensional space to navigate or rank segmentations"; the prototype
returns its output sorted by entropy (Figure 4, ``sort(output)``).  This
module provides that default plus two generalisations used by the ablation
benches:

* :class:`EntropyRanker` — the paper's behaviour;
* :class:`WeightedRanker` — a weighted sum of normalised entropy, breadth
  and (inverse) simplicity;
* :class:`LexicographicRanker` — strict priority ordering of the criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import AdvisorError
from repro.sdl.segmentation import Segmentation
from repro.core.metrics import SegmentationScores, score_segmentation

__all__ = [
    "Ranker",
    "EntropyRanker",
    "WeightedRanker",
    "LexicographicRanker",
]


class Ranker:
    """Base class: turns a segmentation's scores into a sortable key."""

    #: Human-readable name used in reports and benchmark tables.
    name = "ranker"

    def score(self, scores: SegmentationScores) -> float:
        """A single scalar score; larger is better."""
        raise NotImplementedError

    def score_for(self, segmentation: Segmentation, scores: SegmentationScores) -> float:
        """Score with access to the segmentation itself.

        The default delegates to :meth:`score`; rankers that need more than
        the count-derived metrics (for example the surprise ranker, which
        issues extra queries) override this instead.
        """
        return self.score(scores)

    def sort_key(self, scores: SegmentationScores) -> Tuple:
        """Sort key (descending); defaults to the scalar score."""
        return (self.score(scores),)

    def rank(
        self, segmentations: Sequence[Segmentation]
    ) -> List[Tuple[Segmentation, SegmentationScores]]:
        """Sort segmentations best-first, pairing each with its scores."""
        scored = [(segmentation, score_segmentation(segmentation)) for segmentation in segmentations]
        scored.sort(key=lambda pair: self.sort_key(pair[1]), reverse=True)
        return scored


class EntropyRanker(Ranker):
    """The paper's ranking: order candidates by decreasing entropy."""

    name = "entropy"

    def score(self, scores: SegmentationScores) -> float:
        return scores.entropy


@dataclass
class WeightedRanker(Ranker):
    """Weighted combination of the three principles.

    The entropy term is normalised by ``log(max_depth)`` so the three terms
    are commensurate; simplicity enters inversely (fewer constraints is
    better), scaled by ``1 / (1 + P(S))``.
    """

    entropy_weight: float = 1.0
    breadth_weight: float = 0.5
    simplicity_weight: float = 0.5
    max_depth: int = 12

    name = "weighted"

    def __post_init__(self) -> None:
        if min(self.entropy_weight, self.breadth_weight, self.simplicity_weight) < 0:
            raise AdvisorError("ranking weights must be non-negative")
        if self.max_depth < 2:
            raise AdvisorError("max_depth must be at least 2")

    def score(self, scores: SegmentationScores) -> float:
        import math

        normalised_entropy = (
            scores.entropy / math.log(self.max_depth) if self.max_depth > 1 else 0.0
        )
        breadth_term = scores.breadth
        simplicity_term = 1.0 / (1.0 + scores.simplicity)
        return (
            self.entropy_weight * normalised_entropy
            + self.breadth_weight * breadth_term
            + self.simplicity_weight * simplicity_term
        )


@dataclass
class LexicographicRanker(Ranker):
    """Strict priority ordering over the criteria.

    ``priorities`` is a sequence of criterion names among ``"entropy"``,
    ``"breadth"``, ``"simplicity"`` and ``"balance"``; earlier entries
    dominate later ones.  Simplicity is compared inverted so that fewer
    constraints ranks higher, consistently with "larger key sorts first".
    """

    priorities: Tuple[str, ...] = ("entropy", "breadth", "simplicity")

    name = "lexicographic"

    _VALID = ("entropy", "breadth", "simplicity", "balance")

    def __post_init__(self) -> None:
        unknown = [p for p in self.priorities if p not in self._VALID]
        if unknown:
            raise AdvisorError(f"unknown ranking criteria: {unknown}")
        if not self.priorities:
            raise AdvisorError("at least one ranking criterion is required")

    def score(self, scores: SegmentationScores) -> float:
        return self.sort_key(scores)[0]

    def sort_key(self, scores: SegmentationScores) -> Tuple:
        key = []
        for criterion in self.priorities:
            if criterion == "entropy":
                key.append(scores.entropy)
            elif criterion == "breadth":
                key.append(float(scores.breadth))
            elif criterion == "balance":
                key.append(scores.balance)
            else:  # simplicity: fewer constraints is better
                key.append(-float(scores.simplicity))
        return tuple(key)

