"""Terminal pie charts.

The Figure 1 interface represents each segmentation as a pie chart whose
slices are SDL queries.  Headless reproduction cannot open a GUI, so this
module renders the same information as text: a proportional bar per
segment (the "slice"), its cover, its count and its short label, plus a
compact one-line variant used in ranked answer lists.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import VisualizationError
from repro.sdl.formatter import format_segment_label
from repro.sdl.segmentation import Segmentation

__all__ = ["pie_chart", "compact_pie"]

_FULL_BLOCK = "█"
_LIGHT_BLOCK = "░"
_SLICE_GLYPHS = "●◐○◑◒◓◔◕◖◗◍◎"


def slice_fractions(segmentation: Segmentation) -> List[float]:
    """The cover of each segment relative to the context, in segment order."""
    return list(segmentation.covers)


def pie_chart(
    segmentation: Segmentation,
    width: int = 40,
    sort_by_cover: bool = True,
    max_slices: Optional[int] = None,
    show_labels: bool = True,
) -> str:
    """Render a segmentation as a textual pie chart (one bar per slice).

    Parameters
    ----------
    width:
        Number of character cells representing 100% of the context.
    sort_by_cover:
        Largest slices first (how the interface orders them).
    max_slices:
        Collapse the smallest slices beyond this bound into an "other"
        line (the paper's "more than a dozen slices is hard to read").
    show_labels:
        Include the SDL label of each slice.
    """
    if width < 4:
        raise VisualizationError(f"pie chart width must be at least 4, got {width}")
    order = list(range(segmentation.depth))
    if sort_by_cover:
        order.sort(key=lambda index: segmentation.segments[index].count, reverse=True)

    collapsed_count = 0
    collapsed_cover = 0.0
    if max_slices is not None and len(order) > max_slices:
        for index in order[max_slices:]:
            collapsed_count += segmentation.segments[index].count
            collapsed_cover += segmentation.covers[index]
        order = order[:max_slices]

    lines = [
        f"pie: {segmentation.depth} slices over {segmentation.context_count} rows "
        f"(cut on {', '.join(segmentation.cut_attributes) or '-'})"
    ]
    for index in order:
        segment = segmentation.segments[index]
        cover = segmentation.covers[index]
        filled = int(round(cover * width))
        bar = _FULL_BLOCK * filled + _LIGHT_BLOCK * (width - filled)
        label = ""
        if show_labels:
            label = "  " + format_segment_label(segment.query, segmentation.context)
        lines.append(f"  {bar} {cover:6.1%} ({segment.count}){label}")
    if collapsed_count:
        filled = int(round(collapsed_cover * width))
        bar = _FULL_BLOCK * filled + _LIGHT_BLOCK * (width - filled)
        lines.append(
            f"  {bar} {collapsed_cover:6.1%} ({collapsed_count})  …other slices"
        )
    return "\n".join(lines)


def compact_pie(segmentation: Segmentation, width: int = 24) -> str:
    """A single-line proportional strip, one glyph run per slice.

    Used in the ranked answer list where each candidate gets one line, as
    in Figure 1's top panel.
    """
    if width < len(segmentation.segments):
        width = len(segmentation.segments)
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
