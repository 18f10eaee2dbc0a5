"""Evaluation of SDL predicates into boolean selection vectors.

This is the column-at-a-time evaluation layer: each predicate of an SDL
query is turned into a boolean NumPy array over one column, and the
conjunction is the element-wise AND of those arrays.  The query engine
(:mod:`repro.storage.engine`) adds caching and operation accounting on
top.

Evaluation is *partitionable*: a mask over a table is the concatenation
of the masks over any contiguous row-range shards of it.  See
:mod:`repro.storage.partition` for the sharding and
:class:`repro.storage.zonemap.SkippingIndexes` for the per-shard
evaluation (inline, or on an :class:`~repro.backends.pool.ExecutorPool`).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import TypeMismatchError
from repro.sdl.predicates import (
    ExclusionPredicate,
    NoConstraint,
    Predicate,
    RangePredicate,
    SetPredicate,
)
from repro.sdl.query import SDLQuery
from repro.storage.table import Table

__all__ = ["query_mask"]

#: ``bitmaps(attribute) -> BitmapIndex | None`` — an optional provider of
#: per-column bitmap indexes (see :class:`repro.storage.index.BitmapIndex`).
#: ``None`` for an attribute means "no index here, evaluate the column".
BitmapLookup = Callable[[str], Optional[object]]


def predicate_mask(
    table: Table,
    predicate: Predicate,
    bitmaps: Optional[BitmapLookup] = None,
) -> np.ndarray:
    """Boolean selection vector for a single predicate over ``table``.

    Unconstrained predicates select every row.  Unknown columns raise
    :class:`~repro.errors.UnknownColumnError` via :meth:`Table.column`.
    When ``bitmaps`` offers a bitmap index for the attribute, set and
    exclusion masks come from its cached per-value bitmaps — bit-for-bit
    the same vectors, computed without re-scanning the column codes.
    """
    if isinstance(predicate, NoConstraint):
        # The attribute must still exist: context queries may only mention
        # actual columns of the relation.
        table.column(predicate.attribute)
        return np.ones(table.num_rows, dtype=bool)
    column = table.column(predicate.attribute)
    if isinstance(predicate, RangePredicate):
        return column.mask_range(
            predicate.low,
            predicate.high,
            include_low=predicate.include_low,
            include_high=predicate.include_high,
        )
    index = bitmaps(predicate.attribute) if bitmaps is not None else None
    if isinstance(predicate, SetPredicate):
        if index is not None:
            return index.mask_set(predicate.values)
        return column.mask_set(predicate.values)
    if isinstance(predicate, ExclusionPredicate):
        # NOT IN with SQL NULL semantics: missing values never match.
        if index is not None:
            return index.mask_exclusion(predicate.values)
        return column.valid_mask() & ~column.mask_set(predicate.values)
    raise TypeMismatchError(
        f"unsupported predicate type: {type(predicate).__name__}"
    )  # pragma: no cover - exhaustive over the SDL grammar


def query_mask(
    table: Table,
    query: SDLQuery,
    bitmaps: Optional[BitmapLookup] = None,
) -> np.ndarray:
    """Boolean selection vector for an SDL query (conjunction of predicates)."""
    mask = np.ones(table.num_rows, dtype=bool)
    for predicate in query.predicates:
        if not predicate.is_constrained:
            # Still validate that the context column exists.
            table.column(predicate.attribute)
            continue
        mask &= predicate_mask(table, predicate, bitmaps)
        if not mask.any():
            break
    return mask

