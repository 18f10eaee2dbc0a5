"""Per-segment attribute distributions (paper, Section 5.2).

"The only information that Charles gives about the segments is their
counts.  It may be interesting to display more.  For instance, the
distribution of some attributes could be plotted."  These renderers do
exactly that in plain text:

* :func:`value_histogram` — a horizontal-bar histogram of one attribute
  under one query;
* :func:`segment_distributions` — the same attribute plotted side by side
  for every segment of a segmentation, so deviations from the context
  distribution are visible at a glance;
* :func:`numeric_sparkline` — a compact unicode sparkline of a numeric
  attribute's binned distribution, used inside the report views.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import VisualizationError
from repro.sdl.formatter import format_segment_label
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation
from repro.backends.base import ExecutionBackend

__all__ = ["segment_distributions"]

_BAR = "▇"
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def value_histogram(
    engine: ExecutionBackend,
    attribute: str,
    query: Optional[SDLQuery] = None,
    width: int = 30,
    max_values: int = 10,
) -> str:
    """Horizontal-bar histogram of ``attribute`` under ``query``.

    Nominal attributes show their most frequent values; numeric attributes
    are shown value by value only when few distinct values exist, otherwise
    use :func:`numeric_sparkline`.
    """
    if width < 4:
        raise VisualizationError("histogram width must be at least 4")
    frequencies = engine.value_frequencies(attribute, query)
    if not frequencies:
        return f"{attribute}: (no values)"
    ordered = sorted(frequencies.items(), key=lambda kv: (-kv[1], str(kv[0])))
    shown = ordered[:max_values]
    hidden = ordered[max_values:]
    largest = max(count for _, count in shown)
    label_width = max(len(str(value)) for value, _ in shown)
    lines = [f"{attribute}:"]
    for value, count in shown:
        bar = _BAR * max(1, int(round(width * count / largest)))
        lines.append(f"  {str(value):<{label_width}}  {bar} {count}")
    if hidden:
        rest = sum(count for _, count in hidden)
        lines.append(f"  (+{len(hidden)} more values, {rest} rows)")
    return "\n".join(lines)


def numeric_sparkline(
    engine: ExecutionBackend,
    attribute: str,
    query: Optional[SDLQuery] = None,
    bins: int = 16,
) -> str:
    """A one-line sparkline of a numeric attribute's binned distribution."""
    if bins < 2:
        raise VisualizationError("a sparkline needs at least 2 bins")
    column = engine.table.column(attribute)
    if not column.dtype.is_numeric:
        raise VisualizationError(f"column {attribute!r} is not numeric")
    mask = None if query is None else engine.evaluate(query)
    values = [v for v in column.values_list(mask) if v is not None]
    if not values:
        return "(empty)"
    numeric = np.asarray(
        [v.toordinal() if hasattr(v, "toordinal") else float(v) for v in values],
        dtype=np.float64,
    )
    low, high = float(numeric.min()), float(numeric.max())
    if low == high:
        return _SPARK_LEVELS[-1] * bins
    histogram, _ = np.histogram(numeric, bins=bins, range=(low, high))
    top = histogram.max()
    glyphs = [
        _SPARK_LEVELS[int(round((len(_SPARK_LEVELS) - 1) * count / top))] if top else _SPARK_LEVELS[0]
        for count in histogram
    ]
    return "".join(glyphs)


def segment_distributions(
    engine: ExecutionBackend,
    segmentation: Segmentation,
    attribute: str,
    width: int = 24,
    max_values: int = 6,
) -> str:
    """The distribution of one attribute inside every segment, plus the context.

    Nominal attributes are shown as per-value percentage bars; numeric
    attributes as sparklines over a shared range.  The context row comes
    first, so per-segment deviations are immediately visible.
    """
    column = engine.table.column(attribute)
    lines = [f"distribution of {attribute!r} per segment:"]
    if column.dtype.is_numeric:
        lines.append(f"  context  {numeric_sparkline(engine, attribute, segmentation.context)}")
        for segment in segmentation.segments:
            label = format_segment_label(segment.query, segmentation.context, max_length=36)
            spark = numeric_sparkline(engine, attribute, segment.query)
            lines.append(f"  {spark}  {label}")
        return "\n".join(lines)

    context_frequencies = engine.value_frequencies(attribute, segmentation.context)
    ordered_values = [
        value
        for value, _ in sorted(
            context_frequencies.items(), key=lambda kv: (-kv[1], str(kv[0]))
        )[:max_values]
    ]
    lines.append(_nominal_row(engine, segmentation.context, attribute, ordered_values,
                              "context", width))
    for segment in segmentation.segments:
        label = format_segment_label(segment.query, segmentation.context, max_length=36)
        lines.append(_nominal_row(engine, segment.query, attribute, ordered_values,
                                  label, width))
    return "\n".join(lines)


def _nominal_row(
    engine: ExecutionBackend,
    query: SDLQuery,
    attribute: str,
    ordered_values: Sequence,
    label: str,
    width: int,
) -> str:
    frequencies = engine.value_frequencies(attribute, query)
    total = sum(frequencies.values())
    cells: List[str] = []
    for value in ordered_values:
        share = frequencies.get(value, 0) / total if total else 0.0
        bar_length = int(round(share * width / max(1, len(ordered_values))))
        cells.append(f"{str(value)[:8]}:{_BAR * max(0, bar_length)}{share:>5.0%}")
    return "  " + "  ".join(cells) + f"   [{label}]"
