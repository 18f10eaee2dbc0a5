"""The CUT primitive (paper, Definitions 5 and 6).

``CUT_attr(Q)`` splits a query in two pieces along one attribute, at the
attribute's median point over the query's result set.  Extended to a
segmentation, CUT splits every constituent query, (at most) doubling the
number of partitions.
"""

from __future__ import annotations

from typing import List

from repro.errors import CannotCutError, PredicateError
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segment, Segmentation
from repro.backends.base import ExecutionBackend
from repro.core.median import DEFAULT_LOW_CARDINALITY_THRESHOLD, median_split

__all__ = ["cut_query", "cut_segmentation"]


def cut_query(
    engine: ExecutionBackend,
    query: SDLQuery,
    attribute: str,
    low_cardinality_threshold: int = DEFAULT_LOW_CARDINALITY_THRESHOLD,
    drop_empty: bool = True,
) -> Segmentation:
    """``CUT_attribute(query)``: a two-piece segmentation of the query.

    Each piece is the original query conjoined with one of the two
    complementary predicates computed by
    :func:`~repro.core.median.median_split`.

    Parameters
    ----------
    drop_empty:
        Remove pieces that select no rows (can happen on pathological
        splits); the remaining pieces still partition the query's extent.

    Raises
    ------
    CannotCutError
        When the attribute cannot be split over the query's result set.
    """
    spec = median_split(
        engine, query, attribute, low_cardinality_threshold=low_cardinality_threshold
    )
    context_count = engine.count(query)
    segments: List[Segment] = []
    for predicate in spec.predicates:
        try:
            piece = query.refine(predicate)
        except PredicateError as error:
            # E.g. an exclusion constraint on a numeric attribute whose
            # excluded values fall inside the cut range: the conjunction
            # has no single-predicate form, so the attribute cannot be cut.
            raise CannotCutError(attribute, str(error)) from error
        if piece is None:
            continue
        count = engine.count(piece)
        if drop_empty and count == 0:
            continue
        segments.append(Segment(piece, count))
    if not segments:
        raise CannotCutError(attribute, "both pieces of the cut are empty")
    if len(segments) < 2:
        raise CannotCutError(attribute, "the cut produced a single non-empty piece")
    return Segmentation(
        context=query,
        segments=segments,
        context_count=context_count,
        cut_attributes=(attribute,),
    )


def cut_segmentation(
    engine: ExecutionBackend,
    segmentation: Segmentation,
    attribute: str,
    low_cardinality_threshold: int = DEFAULT_LOW_CARDINALITY_THRESHOLD,
    drop_empty: bool = True,
    strict: bool = False,
) -> Segmentation:
    """``CUT_attribute(S)``: cut every query of a segmentation (Definition 6).

    Pieces that cannot be cut further (a single distinct value remains in
    their extent) are kept whole unless ``strict`` is true, so the result
    is always a valid partition of the same context.

    Parameters
    ----------
    strict:
        When true, a piece that cannot be cut raises
        :class:`~repro.errors.CannotCutError` instead of being kept whole.
    """
    new_segments: List[Segment] = []
    any_cut = False
    for segment in segmentation.segments:
        try:
            piece_segmentation = cut_query(
                engine,
                segment.query,
                attribute,
                low_cardinality_threshold=low_cardinality_threshold,
                drop_empty=drop_empty,
            )
        except CannotCutError:
            if strict:
                raise
            new_segments.append(segment)
            continue
        any_cut = True
        new_segments.extend(piece_segmentation.segments)
    if not any_cut and strict:
        raise CannotCutError(attribute, "no piece of the segmentation could be cut")
    cut_attributes = segmentation.cut_attributes
    if any_cut:
        cut_attributes = tuple(dict.fromkeys((*cut_attributes, attribute)))
    return Segmentation(
        context=segmentation.context,
        segments=new_segments,
        context_count=segmentation.context_count,
        cut_attributes=cut_attributes,
    )
