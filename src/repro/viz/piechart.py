"""Terminal pie charts.

The Figure 1 interface represents each segmentation as a pie chart whose
slices are SDL queries.  Headless reproduction cannot open a GUI, so this
module renders the same information as text: a proportional bar per
segment (the "slice"), its cover, its count and its short label, plus a
compact one-line variant used in ranked answer lists.
"""

from __future__ import annotations

from typing import List

from repro.errors import VisualizationError
from repro.sdl.formatter import format_segment_label
from repro.sdl.segmentation import Segmentation

__all__ = ["pie_chart", "compact_pie"]

_FULL_BLOCK = "█"
_LIGHT_BLOCK = "░"
_SLICE_GLYPHS = "●◐○◑◒◓◔◕◖◗◍◎"
_COMPACT_WIDTH = 24


def pie_chart(segmentation: Segmentation, width: int = 40) -> str:
    """Render a segmentation as a textual pie chart: one bar per slice,
    largest first (how the interface orders them), each with its SDL label.
    ``width`` is the number of character cells representing 100% of the
    context."""
    if width < 4:
        raise VisualizationError(f"pie chart width must be at least 4, got {width}")
    order = sorted(
        range(segmentation.depth),
        key=lambda index: segmentation.segments[index].count,
        reverse=True,
    )
    lines = [
        f"pie: {segmentation.depth} slices over {segmentation.context_count} rows "
        f"(cut on {', '.join(segmentation.cut_attributes) or '-'})"
    ]
    for index in order:
        segment = segmentation.segments[index]
        cover = segmentation.covers[index]
        filled = int(round(cover * width))
        bar = _FULL_BLOCK * filled + _LIGHT_BLOCK * (width - filled)
        label = format_segment_label(segment.query, segmentation.context)
        lines.append(f"  {bar} {cover:6.1%} ({segment.count})  {label}")
    return "\n".join(lines)


def compact_pie(segmentation: Segmentation) -> str:
    """A single-line proportional strip, one glyph run per slice, at least
    ``_COMPACT_WIDTH`` cells wide.

    Used in the ranked answer list where each candidate gets one line, as
    in Figure 1's top panel.
    """
    width = max(_COMPACT_WIDTH, len(segmentation.segments))
    pieces: List[str] = []
    order = sorted(
        range(segmentation.depth),
        key=lambda index: segmentation.segments[index].count,
        reverse=True,
    )
    remaining = width
    for position, index in enumerate(order):
        cover = segmentation.covers[index]
        glyph = _SLICE_GLYPHS[position % len(_SLICE_GLYPHS)]
        cells = max(1, int(round(cover * width)))
        cells = min(cells, remaining - (len(order) - position - 1))
        cells = max(1, cells)
        pieces.append(glyph * cells)
        remaining -= cells
        if remaining <= 0:
            break
    return "[" + "".join(pieces)[:width].ljust(width) + "]"
