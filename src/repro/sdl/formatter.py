"""Canonical text rendering of SDL objects.

``Predicate.to_sdl`` and ``SDLQuery.to_sdl`` already produce the paper's
syntax; this module adds higher-level renderings used by the CLI, the
report generator and the tests:

* :func:`format_segmentation` — a compact one-segment-per-line listing;
* :func:`format_segment_label` — the short labels shown on pie-chart
  slices in Figure 1 (only the cut attributes, not the whole context).

A query's cache key is :attr:`~repro.sdl.query.SDLQuery.key`.
"""

from __future__ import annotations

from typing import List

from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation

__all__ = ["format_segmentation", "format_segment_label"]


def format_segment_label(
    query: SDLQuery, context: SDLQuery | None = None, max_length: int = 60
) -> str:
    """Short label for one segment, omitting constraints shared with the context.

    Figure 1 labels slices with only the predicates the segmentation added
    (for example ``departure_harbor: [Bantam, Rammenkens] / tonnage: 1000,
    1150``), not with the full context conjunction.
    """
    context_predicates = set(context.predicates) if context is not None else set()
    parts: List[str] = []
    for predicate in query.predicates:
        if not predicate.is_constrained:
            continue
        if predicate in context_predicates:
            continue
        parts.append(predicate.to_sdl())
    label = " / ".join(parts) if parts else "(all)"
    if len(label) > max_length:
        label = label[: max_length - 1] + "…"
    return label


def format_segmentation(segmentation: Segmentation) -> str:
    """Render a segmentation, one segment per line, largest cover first."""
    header = (
        f"Segmentation on [{', '.join(segmentation.cut_attributes) or '-'}] — "
        f"{segmentation.depth} segments over {segmentation.context_count} rows"
    )
    lines = [header]
    order = sorted(
        range(len(segmentation.segments)),
        key=lambda i: segmentation.segments[i].count,
        reverse=True,
    )
    covers = segmentation.covers
    for index in order:
        segment = segmentation.segments[index]
        label = format_segment_label(segment.query, segmentation.context)
        lines.append(f"  {covers[index]:6.1%}  {segment.count:>8}  {label}")
    return "\n".join(lines)
