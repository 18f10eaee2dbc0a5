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

from repro.sdl.predicates import (
    ExclusionPredicate,
    NoConstraint,
    Predicate,
    RangePredicate,
    SetPredicate,
    intersect_predicates,
)
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segment, Segmentation
from repro.sdl.parser import parse_query
from repro.sdl.formatter import format_segment_label, format_segmentation, query_signature
from repro.sdl.validation import check_partition

__all__ = [
    "Predicate",
    "NoConstraint",
    "RangePredicate",
    "SetPredicate",
    "ExclusionPredicate",
    "intersect_predicates",
    "SDLQuery",
    "Segment",
    "Segmentation",
    "parse_query",
    "format_segmentation",
    "format_segment_label",
    "query_signature",
    "check_partition",
]
