"""Per-segment attribute distributions (paper, Section 5.2).

"The only information that Charles gives about the segments is their
counts.  It may be interesting to display more.  For instance, the
distribution of some attributes could be plotted."  These renderers do
exactly that in plain text:

* :func:`segment_distributions` — one attribute plotted side by side for
  every segment of a segmentation, so deviations from the context
  distribution are visible at a glance;
* :func:`numeric_sparkline` — a compact unicode sparkline of a numeric
  attribute's binned distribution, used inside the report views.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import VisualizationError
from repro.sdl.formatter import format_segment_label
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation
from repro.backends.base import ExecutionBackend

__all__ = ["segment_distributions"]

_BAR = "▇"
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
#: Bins of a numeric sparkline.
_SPARK_BINS = 16
#: Width of a nominal row's bars, and values (the context's most frequent) it shows.
_DISTRIBUTION_WIDTH = 24
_DISTRIBUTION_VALUES = 6


def numeric_sparkline(engine: ExecutionBackend, attribute: str, query: SDLQuery) -> str:
    """A one-line sparkline of a numeric attribute's binned distribution
    under ``query``, in ``_SPARK_BINS`` bins."""
    column = engine.table.column(attribute)
    if not column.dtype.is_numeric:
        raise VisualizationError(f"column {attribute!r} is not numeric")
    values = [v for v in column.values_list(engine.evaluate(query)) if v is not None]
    if not values:
        return "(empty)"
    numeric = np.asarray(
        [v.toordinal() if hasattr(v, "toordinal") else float(v) for v in values],
        dtype=np.float64,
    )
    low, high = float(numeric.min()), float(numeric.max())
    if low == high:
        return _SPARK_LEVELS[-1] * _SPARK_BINS
    histogram, _ = np.histogram(numeric, bins=_SPARK_BINS, range=(low, high))
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
        )[:_DISTRIBUTION_VALUES]
    ]
    lines.append(_nominal_row(engine, segmentation.context, attribute, ordered_values,
                              "context"))
    for segment in segmentation.segments:
        label = format_segment_label(segment.query, segmentation.context, max_length=36)
        lines.append(_nominal_row(engine, segment.query, attribute, ordered_values,
                                  label))
    return "\n".join(lines)


def _nominal_row(
    engine: ExecutionBackend,
    query: SDLQuery,
    attribute: str,
    ordered_values: Sequence,
    label: str,
) -> str:
    frequencies = engine.value_frequencies(attribute, query)
    total = sum(frequencies.values())
    cells: List[str] = []
    for value in ordered_values:
        share = frequencies.get(value, 0) / total if total else 0.0
        bar_length = int(round(share * _DISTRIBUTION_WIDTH / max(1, len(ordered_values))))
        cells.append(f"{str(value)[:8]}:{_BAR * max(0, bar_length)}{share:>5.0%}")
    return "  " + "  ".join(cells) + f"   [{label}]"
