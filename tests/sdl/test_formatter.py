"""Unit tests for the SDL formatter helpers."""

from __future__ import annotations

from repro.sdl import (
    NoConstraint,
    RangePredicate,
    SDLQuery,
    Segment,
    Segmentation,
    SetPredicate,
    format_segment_label,
    format_segmentation,
)


def _context() -> SDLQuery:
    return SDLQuery([NoConstraint("tonnage"), NoConstraint("harbour")])


def _segmentation() -> Segmentation:
    context = _context()
    low = context.refine(RangePredicate("tonnage", 1000, 1150))
    high = context.refine(RangePredicate("tonnage", 1151, 1300))
    return Segmentation(
        context,
        [Segment(low, 70), Segment(high, 30)],
        cut_attributes=("tonnage",),
    )


class TestSegmentLabel:
    def test_label_omits_context_constraints(self):
        context = SDLQuery([SetPredicate("type", frozenset({"fluit"})), NoConstraint("tonnage")])
        segment_query = context.refine(RangePredicate("tonnage", 1000, 1150))
        label = format_segment_label(segment_query, context)
        assert "tonnage" in label
        assert "type" not in label

    def test_label_for_unconstrained_query(self):
        context = _context()
        assert format_segment_label(context, context) == "(all)"

    def test_label_truncation(self):
        context = _context()
        segment_query = context.refine(
            SetPredicate("harbour", frozenset({f"harbour-{i}" for i in range(30)}))
        )
        label = format_segment_label(segment_query, context, max_length=40)
        assert len(label) <= 40
        assert label.endswith("…")


class TestFormatSegmentation:
    def test_orders_segments_by_cover(self):
        text = format_segmentation(_segmentation())
        first_line, second_line = text.splitlines()[1:3]
        assert "70" in first_line
        assert "30" in second_line

    def test_header_mentions_cut_attributes(self):
        assert "tonnage" in format_segmentation(_segmentation()).splitlines()[0]

    def test_lines_show_cover_and_count(self):
        first_line = format_segmentation(_segmentation()).splitlines()[1]
        assert "70.0%" in first_line and " 70 " in first_line

    def test_covers_are_relative_to_the_context(self):
        context = _context()
        low = context.refine(RangePredicate("tonnage", 1000, 1150))
        partial = Segmentation(context, [Segment(low, 70)], context_count=200,
                               cut_attributes=("tonnage",))
        first_line = format_segmentation(partial).splitlines()[1]
        assert "35.0%" in first_line and " 70 " in first_line


class TestQuerySignature:
    def test_signature_is_order_independent(self):
        first = SDLQuery([NoConstraint("a"), RangePredicate("b", 1, 2)])
        second = SDLQuery([RangePredicate("b", 1, 2), NoConstraint("a")])
        assert first.key == second.key

    def test_signature_distinguishes_constraints(self):
        first = SDLQuery([RangePredicate("b", 1, 2)])
        second = SDLQuery([RangePredicate("b", 1, 3)])
        assert first.key != second.key
