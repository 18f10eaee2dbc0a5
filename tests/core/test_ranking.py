"""Unit tests for the ranking policies."""

from __future__ import annotations

import pytest

from repro.core import (
    EntropyRanker,
    LexicographicRanker,
    WeightedRanker,
    score_segmentation,
)
from repro.errors import AdvisorError
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
    def test_breadth_weight_changes_the_order(self, candidates):
        narrow_deep = _segmentation([25, 25, 25, 25], cut_attributes=("x",))
        broad_shallow = _segmentation([40, 60], cut_attributes=("x", "y"))
        entropy_only = WeightedRanker(entropy_weight=1.0, breadth_weight=0.0,
                                      simplicity_weight=0.0)
        breadth_heavy = WeightedRanker(entropy_weight=0.1, breadth_weight=2.0,
                                       simplicity_weight=0.0)
        assert entropy_only.rank([narrow_deep, broad_shallow])[0][0] is narrow_deep
        assert breadth_heavy.rank([narrow_deep, broad_shallow])[0][0] is broad_shallow

    def test_negative_weights_rejected(self):
        with pytest.raises(AdvisorError):
            WeightedRanker(entropy_weight=-1.0)

    def test_invalid_max_depth_rejected(self):
        with pytest.raises(AdvisorError):
            WeightedRanker(max_depth=1)

    def test_score_is_monotone_in_entropy(self):
        ranker = WeightedRanker()
        low = score_segmentation(_segmentation([95, 5]))
        high = score_segmentation(_segmentation([50, 50]))
        assert ranker.score(high) > ranker.score(low)


class TestLexicographicRanker:
    def test_priority_order_is_respected(self, candidates):
        breadth_first = LexicographicRanker(priorities=("breadth", "entropy"))
        ranked = breadth_first.rank(candidates)
        # Both breadth-2 candidates precede the breadth-1 one.
        assert {id(ranked[0][0]), id(ranked[1][0])} == {
            id(candidates[1]),
            id(candidates[2]),
        }

    def test_simplicity_is_inverted(self):
        context = SDLQuery([NoConstraint("x"), NoConstraint("y")])
        simple_query = context.refine(RangePredicate("x", 0, 5))
        complex_query = simple_query.refine(RangePredicate("y", 0, 5))
        simple = Segmentation(context, [Segment(simple_query, 10), Segment(simple_query, 10)],
                              cut_attributes=("x",))
        complicated = Segmentation(
            context, [Segment(complex_query, 10), Segment(complex_query, 10)],
            cut_attributes=("x",),
        )
        ranker = LexicographicRanker(priorities=("simplicity",))
        assert ranker.rank([complicated, simple])[0][0] is simple

    def test_unknown_criterion_rejected(self):
        with pytest.raises(AdvisorError):
            LexicographicRanker(priorities=("entropy", "magic"))

    def test_empty_priorities_rejected(self):
        with pytest.raises(AdvisorError):
            LexicographicRanker(priorities=())

    def test_balance_criterion_supported(self, candidates):
        ranker = LexicographicRanker(priorities=("balance",))
        ranked = ranker.rank(candidates)
        assert ranked[-1][0] is candidates[2]
