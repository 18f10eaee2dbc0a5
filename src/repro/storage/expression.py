"""Evaluation of SDL predicates into boolean selection vectors.

This is the column-at-a-time evaluation layer: each predicate of an SDL
query is turned into a boolean NumPy array over one column, and the
conjunction is the element-wise AND of those arrays.  A set or exclusion
predicate on a nominal column needs no index: the column compares the
codes of a few literals and gathers a boolean lookup table over its
dictionary for more (:meth:`StringColumn.mask_set
<repro.storage.column.StringColumn.mask_set>`), so a set of thousands of
literals is still one pass.  The query engine
(:mod:`repro.storage.engine`) adds caching and operation accounting on
top.

Evaluation is *partitionable*: a mask over a table is the concatenation
of the masks over any contiguous row-range shards of it.  See
:mod:`repro.storage.partition` for the sharding and
:class:`repro.storage.zonemap.SkippingIndexes` for the per-shard
evaluation (inline, or on an :class:`~repro.backends.pool.ExecutorPool`).
"""

from __future__ import annotations

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


def predicate_mask(table: Table, predicate: Predicate) -> np.ndarray:
    """Boolean selection vector for a single predicate over ``table``.

    Unconstrained predicates select every row.  Unknown columns raise
    :class:`~repro.errors.UnknownColumnError` via :meth:`Table.column`.
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
    if isinstance(predicate, SetPredicate):
        return column.mask_set(predicate.values)
    if isinstance(predicate, ExclusionPredicate):
        # NOT IN with SQL NULL semantics: missing values never match.
        return column.valid_mask() & ~column.mask_set(predicate.values)
    raise TypeMismatchError(
        f"unsupported predicate type: {type(predicate).__name__}"
    )  # pragma: no cover - exhaustive over the SDL grammar


def query_mask(table: Table, query: SDLQuery) -> np.ndarray:
    """Boolean selection vector for an SDL query (conjunction of predicates)."""
    mask = np.ones(table.num_rows, dtype=bool)
    for predicate in query.predicates:
        if not predicate.is_constrained:
            # Still validate that the context column exists.
            table.column(predicate.attribute)
            continue
        mask &= predicate_mask(table, predicate)
        if not mask.any():
            break
    return mask

