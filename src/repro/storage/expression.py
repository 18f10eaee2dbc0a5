"""Binding SDL queries to a table, and evaluating them into selection vectors.

A predicate constrains one attribute of one relation (paper, Definitions
1-2), so the column types its literals: :func:`bind` is the one place
that does, and the one place a query raises, before any row is touched.

Evaluation is column-at-a-time: each predicate of a bound query is
turned into a boolean NumPy array over one column, and the conjunction
is the element-wise AND of those arrays.  A set or exclusion predicate
on a nominal column needs no index: the column compares the codes of a
few literals and gathers a boolean lookup table over its dictionary for
more (:meth:`StringColumn.mask_set
<repro.storage.column.StringColumn.mask_set>`), so a set of thousands of
literals is still one pass.  The query engine
(:mod:`repro.storage.engine`) adds caching and operation accounting on
top.

Evaluation is *partitionable*: a mask over a table is the concatenation
of the masks over any contiguous row-range shards of it.  See
:mod:`repro.storage.partition` for the sharding and
:class:`repro.storage.zonemap.SkippingIndexes` for the per-shard
evaluation, which skips the shards a zone map proves empty.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import TypeMismatchError, UnknownColumnError
from repro.sdl.predicates import (
    ExclusionPredicate,
    NoConstraint,
    Predicate,
    RangePredicate,
    SetPredicate,
)
from repro.sdl.query import SDLQuery
from repro.storage.table import Table
from repro.storage.types import DataType, coerce_value, is_missing

__all__ = ["bind", "query_mask"]


def bind(query: SDLQuery, schema: Mapping[str, DataType]) -> SDLQuery:
    """The query with each literal in its column's canonical form.

    ``schema`` maps each column to its type (:meth:`Table.schema
    <repro.storage.table.Table.schema>`).  The rule per type is the table
    in ``docs/sdl.md`` (Binding): numbers stay numbers, never cast to the
    column's width; dates become ordinals; STRING takes ``str(value)``;
    BOOL takes :func:`~repro.storage.types.coerce_value`.  A missing set
    literal becomes ``None`` and matches no row; a missing range bound
    raises, except on a STRING column.  Unknown columns and literals the
    column cannot take raise here, wherever they stand in the query.

    Binding is idempotent, and canonical predicates and queries bind to
    themselves.  The result is kept on each predicate (like
    :attr:`~repro.sdl.predicates.Predicate.text`) and on the query, per
    schema object, so binding again costs a lookup.
    """
    if query._bound_schema is schema:
        return query if query._bound is None else query._bound
    predicates = query.predicates
    bound = None
    for index, predicate in enumerate(predicates):
        kept = getattr(predicate, "_bound", None)
        if kept is None or kept[0] is not schema:
            new = _bind_predicate(predicate, schema)
        elif kept[1] is None:
            continue
        else:
            new = kept[1]
        if new is not predicate:
            if bound is None:
                bound = list(predicates)
            bound[index] = new
    result = query if bound is None else SDLQuery(bound)
    query._bound_schema, query._bound = schema, None if bound is None else result
    return result


def _bind_predicate(predicate: Predicate, schema: Mapping[str, DataType]) -> Predicate:
    """Bind one predicate to its column's type, and keep the result on it."""
    attribute = predicate.attribute
    dtype = schema.get(attribute)
    if dtype is None:
        raise UnknownColumnError(attribute, tuple(schema))
    bound = predicate
    if isinstance(predicate, RangePredicate):
        low = _literal(predicate.low, dtype, attribute, bound=True)
        high = _literal(predicate.high, dtype, attribute, bound=True)
        if low is not predicate.low or high is not predicate.high:
            include = (predicate.include_low, predicate.include_high)
            if low > high:  # typed bounds can invert ('2' > '10'): nothing is inside
                high, include = low, (False, False)
            bound = RangePredicate(attribute, low, high, *include)
    elif isinstance(predicate, (SetPredicate, ExclusionPredicate)):
        values = [_literal(value, dtype, attribute) for value in predicate.values]
        if any(new is not old for new, old in zip(values, predicate.values)):
            bound = type(predicate)(attribute, frozenset(values))
    # ``None`` stands for the predicate itself: no reference cycle to collect.
    object.__setattr__(predicate, "_bound", (schema, None if bound is predicate else bound))
    if bound is not predicate:
        object.__setattr__(bound, "_bound", (schema, None))
    return bound


def _literal(value: Any, dtype: DataType, attribute: str, bound: bool = False) -> Any:
    """One literal's canonical value on a column of ``dtype``."""
    kind = type(value)
    if (  # already canonical, the common case, decided without the rule's checks
        (kind is str and dtype is DataType.STRING and (bound or value.strip()))
        or (kind is int and dtype is not DataType.STRING and dtype is not DataType.BOOL)
        or (kind is float and value == value and (dtype is DataType.INT or dtype is DataType.FLOAT))
    ):
        return value
    if is_missing(value) and not (bound and dtype is DataType.STRING):
        if bound:
            raise TypeMismatchError(f"range bound on {attribute!r} cannot be missing")
        return None
    if dtype is DataType.STRING:
        return str(value)
    if dtype is DataType.BOOL:
        return coerce_value(value, dtype)
    if dtype is DataType.DATE:
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return int(value)
        return coerce_value(value, dtype)
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise TypeMismatchError(f"literal {value!r} is not numeric for column {attribute!r}")


def predicate_mask(table: Table, predicate: Predicate) -> np.ndarray:
    """Boolean selection vector for a single *bound* predicate over ``table``.

    Unconstrained predicates select every row.  Unknown columns raise
    :class:`~repro.errors.UnknownColumnError` via :meth:`Table.column`.
    """
    column = table.column(predicate.attribute)
    if isinstance(predicate, NoConstraint):
        return np.ones(table.num_rows, dtype=bool)
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
    """Boolean selection vector for an SDL query (conjunction of predicates).

    The query is bound first, so it raises before any column is scanned.
    """
    mask = np.ones(table.num_rows, dtype=bool)
    for predicate in bind(query, table.schema()).predicates:
        if not predicate.is_constrained:
            continue
        mask &= predicate_mask(table, predicate)
        if not mask.any():
            break
    return mask
