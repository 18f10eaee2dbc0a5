"""Unit tests for the text tree-map renderer."""

from __future__ import annotations

import pytest

from repro.core import Charles
from repro.errors import VisualizationError
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, Segment, Segmentation
from repro.viz import treemap
from repro.viz.treemap import treemap_layout


def _segmentation(counts) -> Segmentation:
    context = SDLQuery([NoConstraint("x")])
    segments = []
    low = 0
    for count in counts:
        segments.append(Segment(context.refine(RangePredicate("x", low, low + 9)), count))
        low += 10
    return Segmentation(context, segments, cut_attributes=("x",))


class TestTreemapLayout:
    def test_cells_tile_the_whole_grid(self):
        cells = treemap_layout([3, 2, 1], width=12, height=6)
        assert sum(cell.area for cell in cells) == 72
        # No overlaps: every grid point belongs to exactly one cell.
        occupancy = {}
        for cell in cells:
            for y in range(cell.y0, cell.y1):
                for x in range(cell.x0, cell.x1):
                    assert (x, y) not in occupancy
                    occupancy[(x, y)] = cell.segment_index
        assert len(occupancy) == 72

    def test_areas_roughly_proportional_to_weights(self):
        cells = treemap_layout([3, 1], width=16, height=8)
        by_index = {cell.segment_index: cell.area for cell in cells}
        assert by_index[0] > by_index[1]
        assert by_index[0] == pytest.approx(96, abs=16)

    def test_zero_weight_entries_get_no_cell(self):
        cells = treemap_layout([5, 0, 5], width=10, height=4)
        assert {cell.segment_index for cell in cells} == {0, 2}

    def test_single_weight_fills_everything(self):
        cells = treemap_layout([7], width=5, height=3)
        assert len(cells) == 1
        assert cells[0].area == 15

    def test_invalid_dimensions(self):
        with pytest.raises(VisualizationError):
            treemap_layout([1], width=0, height=5)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(VisualizationError):
            treemap_layout([0, 0], width=4, height=4)

    def test_every_cell_is_non_degenerate(self):
        cells = treemap_layout([10, 5, 3, 1, 1], width=20, height=8)
        for cell in cells:
            assert cell.width >= 1
            assert cell.height >= 1


class TestTreemapRendering:
    def test_works_on_advisor_output(self, voc_table):
        advice = Charles(voc_table).advise(
            ["type_of_boat", "departure_harbour", "tonnage"], max_answers=1
        )
        segmentation = advice.best().segmentation
        text = treemap(segmentation, width=30, height=6)
        legend_lines = [line for line in text.splitlines() if "%" in line]
        assert len(legend_lines) == segmentation.depth

    def test_grid_dimensions(self):
        text = treemap(_segmentation([60, 40]), width=30, height=6, show_legend=False)
        lines = text.splitlines()
        assert len(lines) == 6
        assert all(len(line) == 30 for line in lines)

    def test_legend_lists_every_segment(self):
        text = treemap(_segmentation([60, 30, 10]), width=30, height=6)
        legend_lines = [line for line in text.splitlines() if "%" in line]
        assert len(legend_lines) == 3

    def test_larger_segments_get_more_cells(self):
        text = treemap(_segmentation([90, 10]), width=20, height=10, show_legend=False)
        glyph_counts = {}
        for line in text.splitlines():
            for char in line:
                glyph_counts[char] = glyph_counts.get(char, 0) + 1
        counts = sorted(glyph_counts.values(), reverse=True)
        assert counts[0] > counts[-1]

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(VisualizationError):
            treemap(_segmentation([10]), width=2, height=1)

    def test_empty_segmentation_rejected(self):
        with pytest.raises(VisualizationError):
            treemap(_segmentation([0, 0]))
