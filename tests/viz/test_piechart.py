"""Unit tests for the textual pie chart renderer."""

from __future__ import annotations

import pytest

from repro.core import Charles
from repro.errors import VisualizationError
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, Segment, Segmentation
from repro.viz import compact_pie, pie_chart
from repro.viz.piechart import slice_fractions


def _segmentation(counts) -> Segmentation:
    context = SDLQuery([NoConstraint("x")])
    segments = []
    low = 0
    for count in counts:
        segments.append(Segment(context.refine(RangePredicate("x", low, low + 9)), count))
        low += 10
    return Segmentation(context, segments, cut_attributes=("x",))


class TestSliceFractions:
    def test_matches_covers(self):
        segmentation = _segmentation([75, 25])
        assert slice_fractions(segmentation) == [0.75, 0.25]


class TestPieChart:
    def test_works_on_advisor_output(self, voc_table):
        advice = Charles(voc_table).advise(
            ["type_of_boat", "departure_harbour", "tonnage"], max_answers=1
        )
        segmentation = advice.best().segmentation
        assert len(pie_chart(segmentation).splitlines()) == segmentation.depth + 1

    def test_one_line_per_slice_plus_header(self):
        text = pie_chart(_segmentation([60, 40]))
        assert len(text.splitlines()) == 3

    def test_slices_sorted_by_cover(self):
        text = pie_chart(_segmentation([10, 90]))
        lines = text.splitlines()
        assert "90" in lines[1]
        assert "10" in lines[2]

    def test_unsorted_option_preserves_order(self):
        text = pie_chart(_segmentation([10, 90]), sort_by_cover=False)
        assert "10" in text.splitlines()[1]

    def test_bar_length_proportional_to_cover(self):
        text = pie_chart(_segmentation([80, 20]), width=20)
        lines = text.splitlines()
        assert lines[1].count("█") == 16
        assert lines[2].count("█") == 4

    def test_max_slices_collapses_the_tail(self):
        text = pie_chart(_segmentation([40, 30, 20, 5, 5]), max_slices=3)
        assert "other slices" in text
        assert len(text.splitlines()) == 5  # header + 3 + collapsed line

    def test_percentages_and_counts_present(self):
        text = pie_chart(_segmentation([50, 50]))
        assert "50.0%" in text
        assert "(50)" in text

    def test_labels_can_be_hidden(self):
        with_labels = pie_chart(_segmentation([50, 50]), show_labels=True)
        without_labels = pie_chart(_segmentation([50, 50]), show_labels=False)
        assert "x:" in with_labels
        assert "x:" not in without_labels

    def test_invalid_width_rejected(self):
        with pytest.raises(VisualizationError):
            pie_chart(_segmentation([10]), width=2)


class TestCompactPie:
    def test_fixed_width_output(self):
        strip = compact_pie(_segmentation([50, 30, 20]), width=24)
        assert strip.startswith("[") and strip.endswith("]")
        assert len(strip) == 26

    def test_every_slice_gets_at_least_one_cell(self):
        strip = compact_pie(_segmentation([97, 1, 1, 1]), width=20)
        # Four distinct glyph kinds must appear despite the skew.
        body = strip[1:-1].strip()
        assert len(set(body)) >= 2

    def test_width_expands_for_many_slices(self):
        strip = compact_pie(_segmentation([1] * 30), width=4)
        assert len(strip) >= 30
