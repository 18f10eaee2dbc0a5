"""Text tree maps.

Section 5.2 suggests hierarchical visualisations such as tree maps as an
improvement over pie charts.  This module lays a segmentation out as a
character-grid tree map using the slice-and-dice algorithm: the rectangle
is split along its longer side proportionally to segment covers, recursing
over the remaining segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import VisualizationError
from repro.sdl.formatter import format_segment_label
from repro.sdl.segmentation import Segmentation

__all__ = ["treemap"]

_FILL_GLYPHS = "█▓▒░▞▚▜▛▟▙◆◇"


@dataclass(frozen=True)
class TreemapCell:
    """One laid-out rectangle of the tree map (grid coordinates, inclusive-exclusive)."""

    segment_index: int
    x0: int
    y0: int
    x1: int
    y1: int

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0


def treemap_layout(
    weights: Sequence[float], width: int, height: int
) -> List[TreemapCell]:
    """Slice-and-dice layout of ``weights`` into a ``width × height`` grid.

    Zero-weight entries receive no cell.  The recursion splits the current
    rectangle along its longer side at the proportional position of the
    first weight, which keeps every cell a contiguous rectangle.
    """
    if width <= 0 or height <= 0:
        raise VisualizationError("treemap dimensions must be positive")
    total = float(sum(weights))
    if total <= 0:
        raise VisualizationError("treemap weights must not all be zero")
    indexed = [(index, weight) for index, weight in enumerate(weights) if weight > 0]
    cells: List[TreemapCell] = []
    _slice_and_dice(indexed, 0, 0, width, height, cells)
    return sorted(cells, key=lambda cell: cell.segment_index)


def _slice_and_dice(
    entries: List[Tuple[int, float]],
    x0: int,
    y0: int,
    x1: int,
    y1: int,
    cells: List[TreemapCell],
) -> None:
    if not entries or x1 <= x0 or y1 <= y0:
        return
    if len(entries) == 1:
        cells.append(TreemapCell(entries[0][0], x0, y0, x1, y1))
        return
    index, weight = entries[0]
    rest = entries[1:]
    total = weight + sum(w for _, w in rest)
    fraction = weight / total if total > 0 else 0.0
    width, height = x1 - x0, y1 - y0
    if width >= height:
        split = x0 + max(1, min(width - len(rest), int(round(fraction * width))))
        cells.append(TreemapCell(index, x0, y0, split, y1))
        _slice_and_dice(rest, split, y0, x1, y1, cells)
    else:
        split = y0 + max(1, min(height - len(rest), int(round(fraction * height))))
        cells.append(TreemapCell(index, x0, y0, x1, split))
        _slice_and_dice(rest, x0, split, x1, y1, cells)


def treemap(segmentation: Segmentation, width: int = 48, height: int = 12) -> str:
    """Render a segmentation as a character-grid tree map with a legend."""
    if width < 4 or height < 2:
        raise VisualizationError("treemap must be at least 4 columns by 2 rows")
    order = sorted(
        range(segmentation.depth),
        key=lambda index: segmentation.segments[index].count,
        reverse=True,
    )
    weights = [segmentation.segments[index].count for index in order]
    if sum(weights) == 0:
        raise VisualizationError("cannot draw a treemap of an empty segmentation")
    cells = treemap_layout(weights, width, height)

    grid = [[" "] * width for _ in range(height)]
    for cell in cells:
        glyph = _FILL_GLYPHS[cell.segment_index % len(_FILL_GLYPHS)]
        for y in range(cell.y0, cell.y1):
            for x in range(cell.x0, cell.x1):
                grid[y][x] = glyph
    lines = ["".join(row) for row in grid]

    lines.append("")
    for position, index in enumerate(order):
        if position >= len(cells):
            break
        glyph = _FILL_GLYPHS[position % len(_FILL_GLYPHS)]
        segment = segmentation.segments[index]
        label = format_segment_label(segment.query, segmentation.context)
        cover = segmentation.covers[index]
        lines.append(f" {glyph}  {cover:6.1%} ({segment.count})  {label}")
    return "\n".join(lines)
