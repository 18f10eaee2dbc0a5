"""Interestingness and surprise scores (paper, Section 5.2).

"The overall evaluation and ranking process can be greatly improved with
other types of knowledge.  We do not use any notion of 'interestingness'
or 'surprise'."  This module supplies that missing notion, in the spirit
of the discovery-driven exploration work the paper cites (Sarawagi et al.,
Dash et al.): a segment is *surprising* when the distribution of some
attribute inside it deviates from the distribution over the whole context.

Provided pieces:

* :func:`segment_surprise` — Jensen-Shannon-style divergence between a
  segment's distribution of an attribute and the context's;
* :func:`segmentation_interestingness` — cover-weighted surprise of a
  segmentation over a set of probe attributes (attributes *not* used for
  cutting reveal the most);
* :class:`SurpriseRanker` — a drop-in :class:`~repro.core.ranking.Ranker`
  that blends the paper's entropy ordering with the surprise score, so the
  advisor can optionally prefer answers that reveal unexpected structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation
from repro.backends.base import ExecutionBackend
from repro.core.metrics import SegmentationScores, score_segmentation
from repro.core.ranking import Ranker

__all__ = ["SurpriseRanker"]


def _normalise(counts: Dict, keys: Sequence) -> List[float]:
    total = float(sum(counts.get(key, 0) for key in keys))
    if total <= 0:
        return [0.0 for _ in keys]
    return [counts.get(key, 0) / total for key in keys]


def divergence_from_counts(segment_counts: Dict, context_counts: Dict) -> float:
    """Jensen-Shannon divergence (natural log) between two value histograms.

    Symmetric, bounded by ``log 2``, and zero exactly when the segment's
    distribution matches the context's.  Values present in only one of the
    histograms are handled naturally (probability zero on the other side).
    """
    keys = sorted(set(segment_counts) | set(context_counts), key=str)
    if not keys:
        return 0.0
    p = _normalise(segment_counts, keys)
    q = _normalise(context_counts, keys)
    if sum(p) == 0.0 or sum(q) == 0.0:
        return 0.0
    divergence = 0.0
    for p_i, q_i in zip(p, q):
        m_i = 0.5 * (p_i + q_i)
        if p_i > 0:
            divergence += 0.5 * p_i * math.log(p_i / m_i)
        if q_i > 0:
            divergence += 0.5 * q_i * math.log(q_i / m_i)
    return max(0.0, divergence)


def segment_surprise(
    engine: ExecutionBackend,
    segment_query: SDLQuery,
    context: SDLQuery,
    attribute: str,
) -> float:
    """How much ``attribute``'s distribution inside the segment deviates from the context."""
    segment_counts = engine.value_frequencies(attribute, segment_query)
    context_counts = engine.value_frequencies(attribute, context)
    return divergence_from_counts(segment_counts, context_counts)


def segmentation_interestingness(engine: ExecutionBackend, segmentation: Segmentation) -> float:
    """Cover-weighted mean surprise of a segmentation.

    The probed attributes, whose within-segment distributions are compared
    against the context, are the context attributes *not* used for cutting
    — a segmentation is interesting when it implies something about columns
    it never mentions.  When every context attribute is used for cutting,
    the cut attributes themselves are probed.
    """
    cut = set(segmentation.cut_attributes)
    probe_attributes = [
        attribute for attribute in segmentation.context.attributes if attribute not in cut
    ] or list(segmentation.cut_attributes)
    if not probe_attributes:
        return 0.0
    total_weight = 0.0
    accumulated = 0.0
    for segment, weight in zip(segmentation.segments, segmentation.covers):
        if segment.count == 0 or weight == 0.0:
            continue
        for attribute in probe_attributes:
            surprise = segment_surprise(
                engine, segment.query, segmentation.context, attribute
            )
            accumulated += weight * surprise
            total_weight += weight
    if total_weight == 0.0:
        return 0.0
    return accumulated / total_weight


@dataclass
class SurpriseRanker(Ranker):
    """Blend the paper's entropy ranking with an interestingness bonus.

    The score is ``entropy + surprise_weight * interestingness``; with
    ``surprise_weight = 0`` it degenerates to the paper's ordering.  Because
    interestingness needs the engine (it issues frequency queries), the
    ranker is bound to one engine.  Scores are computed afresh on every
    call: nothing a ranking pass learns outlives it.
    """

    engine: ExecutionBackend = None  # type: ignore[assignment]
    surprise_weight: float = 1.0

    name = "surprise"

    def __post_init__(self) -> None:
        if self.engine is None:
            raise ValueError("SurpriseRanker requires an execution backend")
        if self.surprise_weight < 0:
            raise ValueError("surprise_weight must be non-negative")

    def interestingness(self, segmentation: Segmentation) -> float:
        return segmentation_interestingness(self.engine, segmentation)

    def score(self, scores: SegmentationScores) -> float:
        # Without the segmentation the surprise bonus is unknown; fall back
        # to the entropy part so the base-class API stays usable.
        return scores.entropy

    def score_for(self, segmentation: Segmentation, scores: SegmentationScores) -> float:
        return scores.entropy + self.surprise_weight * self.interestingness(segmentation)

    def rank(self, segmentations: Sequence[Segmentation]):
        scored = []
        for segmentation in segmentations:
            scores = score_segmentation(segmentation)
            scored.append((self.score_for(segmentation, scores), segmentation, scores))
        scored.sort(key=lambda item: item[0], reverse=True)
        return [(segmentation, scores) for _, segmentation, scores in scored]
