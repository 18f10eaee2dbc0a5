"""Unit tests for the textual pie chart renderer."""

from __future__ import annotations

import pytest

from repro.core import Charles
from repro.errors import VisualizationError
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, Segment, Segmentation
from repro.viz import compact_pie, pie_chart


def _segmentation(counts) -> Segmentation:
    context = SDLQuery([NoConstraint("x")])
    segments = []
    low = 0
    for count in counts:
        segments.append(Segment(context.refine(RangePredicate("x", low, low + 9)), count))
        low += 10
    return Segmentation(context, segments, cut_attributes=("x",))


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

    def test_header_counts_slices_and_rows(self):
        header = pie_chart(_segmentation([60, 40])).splitlines()[0]
        assert header == "pie: 2 slices over 100 rows (cut on x)"

    def test_bar_length_proportional_to_cover(self):
        text = pie_chart(_segmentation([80, 20]), width=20)
        lines = text.splitlines()
        assert lines[1].count("█") == 16
        assert lines[2].count("█") == 4

    def test_percentages_and_counts_present(self):
        text = pie_chart(_segmentation([50, 50]))
        assert "50.0%" in text
        assert "(50)" in text

    def test_every_slice_is_labelled(self):
        lines = pie_chart(_segmentation([50, 50])).splitlines()
        assert all("x:" in line for line in lines[1:])

    def test_invalid_width_rejected(self):
        with pytest.raises(VisualizationError):
            pie_chart(_segmentation([10]), width=2)


class TestCompactPie:
    def test_fixed_width_output(self):
        strip = compact_pie(_segmentation([50, 30, 20]))
        assert strip.startswith("[") and strip.endswith("]")
        assert len(strip) == 26

    def test_larger_slices_get_more_cells(self):
        body = compact_pie(_segmentation([10, 60, 30]))[1:-1]
        assert body.count("●") > body.count("◐") > body.count("○") > 0

    def test_every_slice_gets_at_least_one_cell(self):
        strip = compact_pie(_segmentation([97, 1, 1, 1]))
        # Four distinct glyph kinds must appear despite the skew.
        body = strip[1:-1].strip()
        assert len(set(body)) >= 2

    def test_width_expands_for_many_slices(self):
        strip = compact_pie(_segmentation([1] * 30))
        assert len(strip) >= 30
