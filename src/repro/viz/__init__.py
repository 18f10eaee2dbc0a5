"""Terminal visualisations of segmentations and advice.

The original Charles GUI (Figure 1) displays pie charts and could be
extended with tree maps (Section 5.2).  These renderers produce the same
information as plain text so examples, the CLI and the benchmarks stay
headless.
"""

from repro.viz.piechart import compact_pie, pie_chart
from repro.viz.treemap import treemap
from repro.viz.histogram import segment_distributions
from repro.viz.report import render_advice

__all__ = [
    "pie_chart",
    "compact_pie",
    "treemap",
    "segment_distributions",
    "render_advice",
]
