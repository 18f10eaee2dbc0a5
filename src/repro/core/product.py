"""The SDL product (paper, Definition 8).

``S1 × S2`` intersects each piece of the first segmentation with each
piece of the second, creating up to ``K × L`` queries.  Its notable
feature (Proposition 1) is that the entropy of the product reveals the
dependency between the two segmentations' variables: for independent
variables ``E(S1 × S2) = E(S1) + E(S2)``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import CompositionError
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segment, Segmentation
from repro.backends.base import ExecutionBackend

__all__ = ["product", "product_cells", "assemble_product", "product_counts"]


def _cell_grid(
    first: Segmentation, second: Segmentation
) -> List[List[Optional[SDLQuery]]]:
    """The ``K × L`` grid of cell queries; ``None`` where two pieces contradict.

    Raises
    ------
    CompositionError
        When the operands partition different contexts.
    """
    if first.context != second.context:
        raise CompositionError(
            "the SDL product requires both segmentations to partition the same context"
        )
    return [
        [left.query.merge(right.query) for right in second.segments]
        for left in first.segments
    ]


def product_cells(first: Segmentation, second: Segmentation) -> List[SDLQuery]:
    """The satisfiable cell queries of ``first × second``, row-major.

    Whoever counts them — one :meth:`count` each in :func:`product`, one
    ``count_batch`` pass over many pairs in HB-cuts — hands the counts to
    :func:`assemble_product`.
    """
    return [
        cell
        for row in _cell_grid(first, second)
        for cell in row
        if cell is not None
    ]


def assemble_product(
    first: Segmentation,
    second: Segmentation,
    cells: Sequence[SDLQuery],
    counts: Sequence[int],
    drop_empty: bool = True,
) -> Segmentation:
    """``first × second`` from its :func:`product_cells` and their counts."""
    segments = [
        Segment(cell, count)
        for cell, count in zip(cells, counts)
        if count or not drop_empty
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
    cells = product_cells(first, second)
    counts = [engine.count(cell) for cell in cells]
    return assemble_product(first, second, cells, counts, drop_empty)


def product_counts(
    engine: ExecutionBackend, first: Segmentation, second: Segmentation
) -> List[List[int]]:
    """The full ``K × L`` contingency table of the product (including zeros).

    Row ``i`` corresponds to the ``i``-th piece of ``first``; column ``j``
    to the ``j``-th piece of ``second``.  Used by the dependence tests and
    by Proposition 1 checks, which need the complete table rather than the
    non-empty cells only.
    """
    return [
        [0 if cell is None else engine.count(cell) for cell in row]
        for row in _cell_grid(first, second)
    ]
