"""The CUT primitive (paper, Definitions 5 and 6).

``CUT_attr(Q)`` splits a query in two pieces along one attribute, at the
attribute's median point over the query's result set.  Extended to a
segmentation, CUT splits every constituent query, (at most) doubling the
number of partitions.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import CannotCutError, PredicateError
from repro.sdl.predicates import Predicate
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segment, Segmentation
from repro.backends.base import ExecutionBackend
from repro.core.median import median_split

__all__ = ["cut_query", "cut_segmentation"]


def split_query(
    engine: ExecutionBackend,
    query: SDLQuery,
    attribute: str,
    predicates: Iterable[Predicate],
    context_count: int,
    minimum: int = 2,
) -> Segmentation:
    """``query`` conjoined with each predicate on ``attribute``, one piece each.

    Empty pieces are dropped: a segmentation partitions its context
    (Definition 3), and an empty piece adds nothing to it (``0 · log 0 =
    0``), so complementary predicates still partition the query's extent.

    Raises
    ------
    CannotCutError
        When fewer than ``minimum`` non-empty pieces remain, or a
        conjunction has no single-predicate form (e.g. an exclusion on a
        numeric attribute whose excluded values fall inside a piece's range).
    """
    segments: List[Segment] = []
    for predicate in predicates:
        try:
            piece = query.refine(predicate)
        except PredicateError as error:
            raise CannotCutError(attribute, str(error)) from error
        if piece is None:
            continue
        count = engine.count(piece)
        if count:
            segments.append(Segment(piece, count))
    if len(segments) < minimum:
        raise CannotCutError(attribute, f"the cut left fewer than {minimum} non-empty pieces")
    return Segmentation(
        context=query,
        segments=segments,
        context_count=context_count,
        cut_attributes=(attribute,),
    )


def cut_query(engine: ExecutionBackend, query: SDLQuery, attribute: str) -> Segmentation:
    """``CUT_attribute(query)``: a two-piece segmentation of the query.

    Each piece is the original query conjoined with one of the two
    complementary predicates computed by
    :func:`~repro.core.median.median_split`.

    Raises
    ------
    CannotCutError
        When the attribute cannot be split over the query's result set.
    """
    spec = median_split(engine, query, attribute)
    return split_query(engine, query, attribute, spec.predicates, engine.count(query))


def cut_segmentation(
    engine: ExecutionBackend, segmentation: Segmentation, attribute: str
) -> Segmentation:
    """``CUT_attribute(S)``: cut every query of a segmentation (Definition 6).

    Pieces that cannot be cut further (a single distinct value, or none,
    remains in their extent) are kept whole, so the result is always a
    valid partition of the same context.
    """
    new_segments: List[Segment] = []
    any_cut = False
    for segment in segmentation.segments:
        try:
            new_segments.extend(cut_query(engine, segment.query, attribute).segments)
            any_cut = True
        except CannotCutError:
            new_segments.append(segment)
    cut_attributes = segmentation.cut_attributes
    if any_cut:
        cut_attributes = tuple(dict.fromkeys((*cut_attributes, attribute)))
    return Segmentation(
        context=segmentation.context,
        segments=new_segments,
        context_count=segmentation.context_count,
        cut_attributes=cut_attributes,
    )
