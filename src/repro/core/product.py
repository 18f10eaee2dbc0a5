"""The SDL product (paper, Definition 8).

``S1 × S2`` intersects each piece of the first segmentation with each
piece of the second, creating up to ``K × L`` queries.  Its notable
feature (Proposition 1) is that the entropy of the product reveals the
dependency between the two segmentations' variables: for independent
variables ``E(S1 × S2) = E(S1) + E(S2)``.

Every count of a product is one
:meth:`~repro.backends.base.ExecutionBackend.crosstab` call: the backend
returns the ``K × L`` table, and only :func:`product` builds the cell
queries (:func:`~repro.sdl.segmentation.product_grid`) to name them.
"""

from __future__ import annotations

from typing import List

from repro.errors import CompositionError
from repro.sdl.segmentation import Segment, Segmentation, product_grid
from repro.backends.base import ExecutionBackend

__all__ = ["product", "product_counts"]


def product(
    engine: ExecutionBackend,
    first: Segmentation,
    second: Segmentation,
    drop_empty: bool = True,
) -> Segmentation:
    """``first × second``: the pairwise-intersection segmentation.

    Parameters
    ----------
    drop_empty:
        Remove empty cells.  Empty cells contribute nothing to entropy
        (``0 · log 0 = 0``), so dropping them does not change any metric,
        but keeps the result legible.

    Raises
    ------
    CompositionError
        When the operands partition different contexts.
    """
    grid = product_grid(first, second)
    table = engine.crosstab(first, second)
    segments = [
        Segment(cell, count)
        for cells, counts in zip(grid, table)
        for cell, count in zip(cells, counts)
        if cell is not None and (count or not drop_empty)
    ]
    if not segments:
        raise CompositionError("the SDL product is empty")
    return Segmentation(
        context=first.context,
        segments=segments,
        context_count=first.context_count,
        cut_attributes=tuple(
            dict.fromkeys((*first.cut_attributes, *second.cut_attributes))
        ),
    )


def product_counts(
    engine: ExecutionBackend, first: Segmentation, second: Segmentation
) -> List[List[int]]:
    """The full ``K × L`` contingency table of the product (including zeros).

    Row ``i`` corresponds to the ``i``-th piece of ``first``; column ``j``
    to the ``j``-th piece of ``second``.  Used by the dependence tests and
    by Proposition 1 checks, which need the complete table rather than the
    non-empty cells only.
    """
    return [list(row) for row in engine.crosstab(first, second)]
