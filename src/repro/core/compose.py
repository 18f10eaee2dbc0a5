"""The COMPOSE primitive (paper, Definition 7).

``COMPOSE(S1, S2)`` cuts the queries of one segmentation on the attributes
of the other: if every query of ``S2`` is based on attributes
``att1 … attN`` then

    COMPOSE(S1, S2) = CUT_att1( CUT_att2( … CUT_attN(S1) … ) )

The cuts are median cuts *within each piece* of ``S1``, so composition
adapts the split points to the sub-populations — this is what makes the
result "semantically coherent" when the attributes are dependent.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import CompositionError
from repro.sdl.segmentation import Segmentation
from repro.backends.base import ExecutionBackend
from repro.core.cut import cut_segmentation

__all__ = ["compose"]


def compose_attributes(segmentation: Segmentation) -> Sequence[str]:
    """The attribute set a segmentation is based on (its cut attributes).

    COMPOSE requires all queries of its second operand to be based on the
    same attributes; segmentations produced by CUT and COMPOSE record them
    in :attr:`~repro.sdl.segmentation.Segmentation.cut_attributes`.
    """
    if not segmentation.cut_attributes:
        raise CompositionError(
            "the second operand of COMPOSE carries no cut attributes; "
            "only segmentations produced by CUT/COMPOSE can be composed"
        )
    return segmentation.cut_attributes


def compose(engine: ExecutionBackend, first: Segmentation, second: Segmentation) -> Segmentation:
    """``COMPOSE(first, second)``: cut ``first`` on the attributes of ``second``.

    Both segmentations must partition the same context.

    Raises
    ------
    CompositionError
        When the operands have different contexts or ``second`` carries no
        cut attributes.
    """
    if first.context != second.context:
        raise CompositionError(
            "COMPOSE requires both segmentations to partition the same context"
        )
    attributes = compose_attributes(second)
    result = first
    # Definition 7 applies CUT_attN first and CUT_att1 last; since each CUT
    # is applied to every piece, the final partition is the same for any
    # order, but we follow the listing for fidelity.
    for attribute in reversed(list(attributes)):
        result = cut_segmentation(engine, result, attribute)
    combined = tuple(dict.fromkeys((*first.cut_attributes, *attributes)))
    return result.with_cut_attributes(combined)
