"""Baseline segmentation strategies for the comparative study (E9).

The paper positions Charles against faceted search, database
summarisation, query recommendation and subspace clustering (Section 6).
To quantify that positioning, this module implements comparable
segmentation generators:

* :func:`facet_segmentation` / :func:`all_facet_segmentations` — the
  faceted-search style answer: one segmentation per attribute, one segment
  per value (or per equal-width bin for numeric attributes);
* :func:`random_segmentation` — random attribute choices and random split
  points, the sanity-check baseline;
* :func:`full_product_segmentation` — the exhaustive product of every
  single-attribute binary cut (what a brute-force exploration of the query
  space would show first);
* :func:`clique_like_segmentation` — a CLIQUE-inspired dense-grid
  summary: equal-width bins per attribute, keep the densest cells.  Unlike
  Charles' answers it is *not* exhaustive, which is exactly the point the
  paper makes about subspace clustering (dense subspaces vs. general
  summaries).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import CannotCutError, SegmentationError
from repro.sdl.predicates import RangePredicate, SetPredicate
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation
from repro.backends.base import ExecutionBackend
from repro.core.cut import cut_query, cut_segmentation, split_query
from repro.core.median import cut_range
from repro.core.product import product

__all__ = [
    "facet_segmentation",
    "all_facet_segmentations",
    "random_segmentation",
    "full_product_segmentation",
    "clique_like_segmentation",
]

#: Cells a CLIQUE-style summary keeps, densest first.
_MAX_DENSE_CELLS = 12


def facet_segmentation(
    engine: ExecutionBackend,
    context: SDLQuery,
    attribute: str,
    max_groups: int = 12,
) -> Segmentation:
    """A faceted-search style segmentation: one segment per value (or bin).

    Nominal attributes get one segment per distinct value, most frequent
    first, with the tail merged into a single "other values" segment once
    ``max_groups`` is reached.  Numeric attributes are binned into
    ``max_groups`` equal-width intervals.
    """
    context_count = engine.count(context)
    if context_count == 0:
        raise CannotCutError(attribute, "the context selects no rows")
    if engine.is_numeric(attribute):
        predicates = _equal_width_predicates(engine, context, attribute, max_groups)
    else:
        predicates = _per_value_predicates(engine, context, attribute, max_groups)
    return split_query(engine, context, attribute, predicates, context_count, minimum=1)


def _per_value_predicates(
    engine: ExecutionBackend, context: SDLQuery, attribute: str, max_groups: int
) -> List[SetPredicate]:
    frequencies = engine.value_frequencies(attribute, context)
    if len(frequencies) < 2:
        raise CannotCutError(attribute, "fewer than two distinct values remain")
    ordered = sorted(frequencies, key=lambda v: (-frequencies[v], str(v)))
    if len(ordered) <= max_groups:
        return [SetPredicate(attribute, frozenset({value})) for value in ordered]
    head = ordered[: max_groups - 1]
    tail = ordered[max_groups - 1 :]
    predicates = [SetPredicate(attribute, frozenset({value})) for value in head]
    predicates.append(SetPredicate(attribute, frozenset(tail)))
    return predicates


def _equal_width_predicates(
    engine: ExecutionBackend, context: SDLQuery, attribute: str, bins: int
) -> List[RangePredicate]:
    minimum, maximum = cut_range(engine, context, attribute)
    low = float(minimum) if not hasattr(minimum, "toordinal") else float(minimum.toordinal())
    high = float(maximum) if not hasattr(maximum, "toordinal") else float(maximum.toordinal())
    edges = np.linspace(low, high, bins + 1)
    predicates: List[RangePredicate] = []
    for index in range(bins):
        is_last = index == bins - 1
        predicates.append(
            RangePredicate(
                attribute,
                low=edges[index],
                high=edges[index + 1],
                include_low=True,
                include_high=is_last,
            )
        )
    return predicates


def all_facet_segmentations(engine: ExecutionBackend, context: SDLQuery) -> List[Segmentation]:
    """One facet segmentation per context attribute (skipping unusable ones)."""
    results: List[Segmentation] = []
    for attribute in context.attributes:
        try:
            results.append(facet_segmentation(engine, context, attribute))
        except CannotCutError:
            continue
    return results


def random_segmentation(
    engine: ExecutionBackend,
    context: SDLQuery,
    depth: int = 4,
    seed: Optional[int] = None,
) -> Segmentation:
    """Random baseline: successive median cuts on randomly chosen attributes.

    The segmentation stops growing once it holds at least ``depth`` pieces
    or no attribute can be cut further.
    """
    rng = np.random.default_rng(seed)
    explored = list(context.attributes)
    if not explored:
        raise SegmentationError("the context mentions no attribute to explore")
    current: Optional[Segmentation] = None
    attempts = 0
    while attempts < 8 * max(1, len(explored)):
        attempts += 1
        attribute = explored[int(rng.integers(0, len(explored)))]
        try:
            if current is None:
                current = cut_query(engine, context, attribute)
            else:
                current = cut_segmentation(engine, current, attribute)
        except CannotCutError:
            continue
        if current.depth >= depth:
            break
    if current is None:
        raise SegmentationError("no attribute of the context could be cut")
    return current


def full_product_segmentation(engine: ExecutionBackend, context: SDLQuery) -> Segmentation:
    """The exhaustive product of every single-attribute binary cut.

    Grows as ``2^N`` with the number of cuttable attributes — the search
    space explosion the paper's heuristic avoids.
    """
    cuts: List[Segmentation] = []
    for attribute in context.attributes:
        try:
            cuts.append(cut_query(engine, context, attribute))
        except CannotCutError:
            continue
    if not cuts:
        raise SegmentationError("no attribute of the context could be cut")
    result = cuts[0]
    for other in cuts[1:]:
        result = product(engine, result, other)
    return result


def clique_like_segmentation(
    engine: ExecutionBackend,
    context: SDLQuery,
    attributes: Optional[Sequence[str]] = None,
    bins: int = 4,
    density_threshold: float = 0.05,
) -> Segmentation:
    """A CLIQUE-inspired dense-cell summary (non-exhaustive by design).

    Every attribute is binned (equal-width for numeric, per-value for
    nominal), the grid product is formed, and only cells holding at least
    ``density_threshold`` of the context are kept, densest first, at most
    a dozen (the paper's readable pie).
    """
    explored = list(attributes) if attributes is not None else list(context.attributes)
    context_count = engine.count(context)
    if context_count == 0:
        raise SegmentationError("the context selects no rows")
    grids: List[Segmentation] = []
    for attribute in explored:
        try:
            grids.append(
                facet_segmentation(engine, context, attribute, max_groups=bins)
            )
        except CannotCutError:
            continue
    if not grids:
        raise SegmentationError("no attribute of the context could be binned")
    grid = grids[0]
    for other in grids[1:]:
        grid = product(engine, grid, other)
    dense = [
        segment
        for segment in grid.segments
        if segment.count / context_count >= density_threshold
    ]
    dense.sort(key=lambda segment: segment.count, reverse=True)
    dense = dense[:_MAX_DENSE_CELLS]
    if not dense:
        raise SegmentationError(
            f"no grid cell reaches the density threshold {density_threshold}"
        )
    return Segmentation(
        context=context,
        segments=dense,
        context_count=context_count,
        cut_attributes=grid.cut_attributes,
    )
