"""Terminal visualisations of segmentations and advice.

The original Charles GUI (Figure 1) displays pie charts and could be
extended with tree maps (Section 5.2).  These renderers produce the same
information as plain text so examples, the CLI and the benchmarks stay
headless.
"""

from repro import _lazy_exports

# ``treemap`` also names its submodule.  Importing a submodule binds it as
# a package attribute, which ``__getattr__`` never overrides, so the
# function is bound eagerly, before any such import.
from repro.viz.treemap import treemap

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.viz.piechart": ("pie_chart", "compact_pie"),
    "repro.viz.treemap": ("treemap",),
    "repro.viz.histogram": ("segment_distributions",),
    "repro.viz.report": ("render_advice",),
})

__all__ = list(_EXPORTS)
