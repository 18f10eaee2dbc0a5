"""Unit tests for the ranking policies."""

from __future__ import annotations

import pytest

from repro.core import (
    EntropyRanker,
    LexicographicRanker,
    WeightedRanker,
    score_segmentation,
)
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, Segment, Segmentation


def _segmentation(counts, cut_attributes=("x",)) -> Segmentation:
    context = SDLQuery([NoConstraint("x"), NoConstraint("y")])
    segments = []
    low = 0
    for count in counts:
        query = context.refine(RangePredicate("x", low, low + 9))
        segments.append(Segment(query, count))
        low += 10
    return Segmentation(context, segments, cut_attributes=cut_attributes)


def _equal_entropy_pair():
    """Two segmentations of equal entropy and breadth 2: one constraint a
    query, and two."""
    context = SDLQuery([NoConstraint("x"), NoConstraint("y")])
    on_x = context.refine(RangePredicate("x", 0, 5))
    on_y = context.refine(RangePredicate("y", 0, 5))
    on_both = on_x.refine(RangePredicate("y", 0, 5))
    simple = Segmentation(context, [Segment(on_x, 10), Segment(on_y, 10)],
                          cut_attributes=("x", "y"))
    complicated = Segmentation(
        context, [Segment(on_both, 10), Segment(on_both, 10)],
        cut_attributes=("x", "y"),
    )
    return simple, complicated


@pytest.fixture()
def candidates():
    return [
        _segmentation([50, 50]),                                 # 2 balanced pieces
        _segmentation([25, 25, 25, 25], cut_attributes=("x", "y")),  # 4 balanced pieces
        _segmentation([97, 1, 1, 1], cut_attributes=("x", "y")),     # 4 skewed pieces
    ]


class TestEntropyRanker:
    def test_highest_entropy_first(self, candidates):
        ranked = EntropyRanker().rank(candidates)
        assert ranked[0][0] is candidates[1]
        assert ranked[-1][0] is candidates[2]

    def test_scores_are_attached(self, candidates):
        ranked = EntropyRanker().rank(candidates)
        for segmentation, scores in ranked:
            assert scores == score_segmentation(segmentation)


class TestWeightedRanker:
    def test_breadth_can_outweigh_entropy(self):
        narrow_deep = _segmentation([25, 25, 25, 25], cut_attributes=("x",))
        broad_shallow = _segmentation([40, 60], cut_attributes=("x", "y"))
        assert EntropyRanker().rank([narrow_deep, broad_shallow])[0][0] is narrow_deep
        assert WeightedRanker().rank([narrow_deep, broad_shallow])[0][0] is broad_shallow

    def test_score_is_monotone_in_entropy(self):
        ranker = WeightedRanker()
        low = score_segmentation(_segmentation([95, 5]))
        high = score_segmentation(_segmentation([50, 50]))
        assert ranker.score(high) > ranker.score(low)

    def test_fewer_constraints_score_higher(self):
        simple, complicated = _equal_entropy_pair()
        ranker = WeightedRanker()
        assert ranker.score(score_segmentation(simple)) > ranker.score(
            score_segmentation(complicated)
        )

    def test_entropy_is_normalised_by_the_dozen_slice_bound(self):
        # Twelve balanced slices: the entropy term is exactly 1; breadth 1
        # and one constraint a query add 0.5 * 1 and 0.5 / (1 + 1).
        twelve = score_segmentation(_segmentation([10] * 12))
        assert WeightedRanker().score(twelve) == pytest.approx(1.0 + 0.5 + 0.25)


class TestLexicographicRanker:
    def test_entropy_comes_first(self, candidates):
        ranked = LexicographicRanker().rank(candidates)
        assert ranked[0][0] is EntropyRanker().rank(candidates)[0][0]

    def test_simplicity_breaks_ties_inverted(self):
        # Equal entropy and breadth: one constraint a query beats two.
        simple, complicated = _equal_entropy_pair()
        ranker = LexicographicRanker()
        assert ranker.rank([complicated, simple])[0][0] is simple

    def test_priority_order_is_respected(self):
        # Equal entropy: the broader segmentation wins although its queries
        # carry more constraints, because breadth is compared before simplicity.
        context = SDLQuery([NoConstraint("x"), NoConstraint("y")])
        on_x = context.refine(RangePredicate("x", 0, 5))
        on_both = on_x.refine(RangePredicate("y", 0, 5))
        narrow = Segmentation(context, [Segment(on_x, 10), Segment(on_x, 10)],
                              cut_attributes=("x",))
        broad = Segmentation(context, [Segment(on_both, 10), Segment(on_both, 10)],
                             cut_attributes=("x", "y"))
        assert LexicographicRanker().rank([narrow, broad])[0][0] is broad
