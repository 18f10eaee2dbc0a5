"""Unit tests for segments and segmentations (Definition 3)."""

from __future__ import annotations

import pytest

from repro.errors import SegmentationError
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, Segment, Segmentation


def _context() -> SDLQuery:
    return SDLQuery([NoConstraint("tonnage"), NoConstraint("type")])


def _two_piece_segmentation(counts=(60, 40)) -> Segmentation:
    context = _context()
    low = context.refine(RangePredicate("tonnage", 0, 49, include_high=False))
    high = context.refine(RangePredicate("tonnage", 49, 100))
    return Segmentation(
        context,
        [Segment(low, counts[0]), Segment(high, counts[1])],
        cut_attributes=("tonnage",),
    )


class TestSegment:
    def test_negative_count_rejected(self):
        with pytest.raises(SegmentationError):
            Segment(_context(), -1)

    def test_cover(self):
        segment = Segment(_context(), 25)
        assert segment.cover(100) == pytest.approx(0.25)
        assert segment.cover(0) == 0.0

    def test_equality(self):
        assert Segment(_context(), 5) == Segment(_context(), 5)
        assert Segment(_context(), 5) != Segment(_context(), 6)


class TestSegmentationConstruction:
    def test_requires_at_least_one_segment(self):
        with pytest.raises(SegmentationError):
            Segmentation(_context(), [])

    def test_context_count_defaults_to_sum(self):
        segmentation = _two_piece_segmentation()
        assert segmentation.context_count == 100

    def test_negative_context_count_rejected(self):
        context = _context()
        with pytest.raises(SegmentationError):
            Segmentation(context, [Segment(context, 10)], context_count=-1)

    def test_overlapping_candidate_is_representable(self):
        # Candidate segmentations under validation may overlap; the
        # constructor keeps them so sdl.validation can flag them.
        context = _context()
        segmentation = Segmentation(
            context, [Segment(context, 10), Segment(context, 10)], context_count=10
        )
        assert segmentation.covered_count == 20

    def test_single_constructor(self):
        segmentation = Segmentation.single(_context(), 42)
        assert segmentation.depth == 1
        assert segmentation.covers == (1.0,)

    def test_cut_attributes_deduplicated(self):
        segmentation = _two_piece_segmentation().with_cut_attributes(
            ["tonnage", "tonnage", "type"]
        )
        assert segmentation.cut_attributes == ("tonnage", "type")


class TestSegmentationProperties:
    def test_covers_sum_to_one_for_exhaustive_partition(self):
        segmentation = _two_piece_segmentation()
        assert sum(segmentation.covers) == pytest.approx(1.0)
        assert segmentation.covered_count == segmentation.context_count

    def test_covers_for_non_exhaustive_segmentation(self):
        context = _context()
        piece = context.refine(RangePredicate("tonnage", 0, 10))
        segmentation = Segmentation(context, [Segment(piece, 30)], context_count=100)
        assert segmentation.covers == (0.3,)
        assert segmentation.covered_count < segmentation.context_count

    def test_depth_and_counts(self):
        segmentation = _two_piece_segmentation()
        assert segmentation.depth == 2
        assert segmentation.counts == (60, 40)
        assert segmentation.covered_count == 100

    def test_attributes_reports_cut_columns(self):
        segmentation = _two_piece_segmentation()
        assert segmentation.attributes == ("tonnage",)

    def test_zero_context_covers_are_zero(self):
        context = _context()
        segmentation = Segmentation(context, [Segment(context, 0)], context_count=0)
        assert segmentation.covers == (0.0,)

    def test_indexing_and_iteration(self):
        segmentation = _two_piece_segmentation()
        assert len(segmentation) == 2
        assert segmentation[0].count == 60
        assert [segment.count for segment in segmentation] == [60, 40]


class TestEqualityAndDescribe:
    def test_equality_is_order_independent(self):
        first = _two_piece_segmentation()
        context = _context()
        low = context.refine(RangePredicate("tonnage", 0, 49, include_high=False))
        high = context.refine(RangePredicate("tonnage", 49, 100))
        second = Segmentation(
            context, [Segment(high, 40), Segment(low, 60)], cut_attributes=("tonnage",)
        )
        assert first == second

    def test_describe_mentions_counts(self):
        text = _two_piece_segmentation().describe()
        assert "2 segments" in text
        assert "60" in text and "40" in text
