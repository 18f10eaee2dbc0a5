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

__all__ = ["query_mask", "refinement_delta"]

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


def predicate_implies(child: Predicate, parent: Predicate, column: object) -> bool:
    """Whether every row satisfying ``child`` must satisfy ``parent``.

    The soundness gate of mask reuse: a drill-down step may AND the
    parent's cached mask with only the *new* predicate's mask iff each
    retained child predicate implies its parent counterpart.  Implication
    is only claimed between predicates of the same shape — cross-shape
    reasoning (a range inside a set, say) would have to re-model each
    column's encoding quirks (INT set predicates truncate float values,
    string ranges compare lexicographically), and a false positive here
    silently corrupts results.  ``False`` merely declines the shortcut.
    """
    if not parent.is_constrained:
        return True
    if child == parent:
        return True
    if isinstance(child, SetPredicate) and isinstance(parent, SetPredicate):
        return child.values <= parent.values
    if isinstance(child, ExclusionPredicate) and isinstance(
        parent, ExclusionPredicate
    ):
        # Excluding MORE values selects a subset.
        return parent.values <= child.values
    if isinstance(child, RangePredicate) and isinstance(parent, RangePredicate):
        encode = getattr(column, "_encode_bound", None)
        if encode is None:
            return False
        try:
            child_low, child_high = encode(child.low), encode(child.high)
            parent_low, parent_high = encode(parent.low), encode(parent.high)
        except Exception:
            return False
        if child_low < parent_low or (
            child_low == parent_low
            and child.include_low
            and not parent.include_low
        ):
            return False
        if child_high > parent_high or (
            child_high == parent_high
            and child.include_high
            and not parent.include_high
        ):
            return False
        return True
    return False


def refinement_delta(
    child: SDLQuery, parent: SDLQuery, table: Table
) -> Optional[Predicate]:
    """The single predicate separating ``child`` from ``parent``, if any.

    Returns the one constrained child predicate ``p`` such that
    ``mask(child) == mask(parent) & predicate_mask(p)`` is guaranteed by
    implication — i.e. every other child predicate implies its parent
    counterpart and ``p`` itself implies its counterpart (so rows outside
    the parent mask are excluded by ``p`` alone).  ``None`` when the
    queries differ in more than one place, constrain different attribute
    sets, or implication cannot be established; callers then evaluate the
    child from scratch.
    """
    parent_by_attr = {p.attribute: p for p in parent.predicates}
    if set(parent_by_attr) != {p.attribute for p in child.predicates}:
        return None
    delta: Optional[Predicate] = None
    for predicate in child.predicates:
        counterpart = parent_by_attr[predicate.attribute]
        if predicate == counterpart:
            continue
        try:
            column = table.column(predicate.attribute)
        except Exception:
            return None
        if not predicate_implies(predicate, counterpart, column):
            return None
        if not counterpart.is_constrained:
            # A genuinely new constraint: this is the drill-down delta.
            if delta is not None:
                return None
            delta = predicate
        else:
            # A *tightened* predicate (child strictly inside its parent
            # counterpart) also shrinks the selection on rows inside the
            # parent mask, which ANDing a single delta would miss.
            return None
    return delta
