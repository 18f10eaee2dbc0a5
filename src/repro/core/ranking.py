"""Ranking of candidate segmentations.

The paper's three principles (simplicity, breadth, entropy) "create a
3-dimensional space to navigate or rank segmentations"; the prototype
returns its output sorted by entropy (Figure 4, ``sort(output)``).  This
module provides that default plus two generalisations used by the ablation
benches:

* :class:`EntropyRanker` — the paper's behaviour;
* :class:`WeightedRanker` — a weighted sum of normalised entropy, breadth
  and (inverse) simplicity;
* :class:`LexicographicRanker` — strict priority ordering of the criteria
  (entropy, breadth, simplicity).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.sdl.segmentation import Segmentation
from repro.core.hbcuts import DEFAULT_MAX_DEPTH
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


#: WeightedRanker's weights of normalised entropy, breadth and simplicity.
_ENTROPY_WEIGHT = 1.0
_BREADTH_WEIGHT = 0.5
_SIMPLICITY_WEIGHT = 0.5


class WeightedRanker(Ranker):
    """Weighted combination of the three principles.

    The entropy term is normalised by ``log`` of the paper's dozen-slice
    bound (:data:`~repro.core.hbcuts.DEFAULT_MAX_DEPTH`), so the three terms
    are commensurate; simplicity enters inversely
    (fewer constraints is better), scaled by ``1 / (1 + P(S))``.
    """

    name = "weighted"

    def score(self, scores: SegmentationScores) -> float:
        return (
            _ENTROPY_WEIGHT * scores.entropy / math.log(DEFAULT_MAX_DEPTH)
            + _BREADTH_WEIGHT * scores.breadth
            + _SIMPLICITY_WEIGHT * (1.0 / (1.0 + scores.simplicity))
        )


class LexicographicRanker(Ranker):
    """Strict priority ordering: entropy, then breadth, then simplicity.

    Simplicity is compared inverted so that fewer constraints ranks higher,
    consistently with "larger key sorts first".
    """

    name = "lexicographic"

    def score(self, scores: SegmentationScores) -> float:
        return scores.entropy

    def sort_key(self, scores: SegmentationScores) -> Tuple:
        return (scores.entropy, float(scores.breadth), -float(scores.simplicity))
