"""Segmentation Description Language (SDL).

The paper introduces SDL as the language Charles uses both to receive
context queries from the user and to describe its answers.  This package
contains:

* the predicate and query objects (:mod:`repro.sdl.predicates`,
  :mod:`repro.sdl.query`);
* segmentations — partitions of a context into SDL queries
  (:mod:`repro.sdl.segmentation`);
* a parser and formatter for the textual syntax
  (:mod:`repro.sdl.parser`, :mod:`repro.sdl.formatter`);
* the partition check of Definition 3 (:mod:`repro.sdl.validation`).
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.sdl.predicates": (
        "Predicate", "NoConstraint", "RangePredicate", "SetPredicate",
        "ExclusionPredicate", "intersect_predicates",
    ),
    "repro.sdl.query": ("SDLQuery",),
    "repro.sdl.segmentation": ("Segment", "Segmentation"),
    "repro.sdl.parser": ("parse_query",),
    "repro.sdl.formatter": ("format_segmentation", "format_segment_label"),
    "repro.sdl.validation": ("check_partition",),
})

__all__ = list(_EXPORTS)
