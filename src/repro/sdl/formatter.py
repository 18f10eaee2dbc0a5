"""Canonical text rendering of SDL objects.

``Predicate.to_sdl`` and ``SDLQuery.to_sdl`` already produce the paper's
syntax; this module adds higher-level renderings used by the CLI, the
report generator and the tests:

* :func:`format_query` — ``SDLQuery.to_sdl`` with the option of leaving
  unconstrained attributes out;
* :func:`format_segmentation` — a compact one-segment-per-line listing;
* :func:`format_segment_label` — the short labels shown on pie-chart
  slices in Figure 1 (only the cut attributes, not the whole context);
* :func:`query_signature` — a stable, order-independent key for caching.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.sdl.predicates import Predicate
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation

__all__ = ["format_segmentation", "format_segment_label", "query_signature"]


def format_query(query: SDLQuery, include_unconstrained: bool = True) -> str:
    """Render a query in SDL text syntax.

    Parameters
    ----------
    include_unconstrained:
        When ``False``, attributes with no constraint are omitted, which is
        how the Figure 1 interface labels pie-chart slices.
    """
    predicates: Iterable[Predicate] = query.predicates
    if not include_unconstrained:
        predicates = [p for p in query.predicates if p.is_constrained]
    inner = ", ".join(p.to_sdl() for p in predicates)
    return f"({inner})"


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


def format_segmentation(
    segmentation: Segmentation,
    show_counts: bool = True,
    relative_to_context: bool = True,
) -> str:
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
        if show_counts:
            cover = covers[index] if relative_to_context else 0.0
            lines.append(f"  {cover:6.1%}  {segment.count:>8}  {label}")
        else:
            lines.append(f"  {label}")
    return "\n".join(lines)


def query_signature(query: SDLQuery) -> str:
    """A stable, attribute-order-independent textual key for a query.

    Used by the engine's mask cache and by tests that compare queries
    produced through different construction paths.
    """
    rendered = sorted(p.to_sdl() for p in query.predicates)
    return "&".join(rendered)
