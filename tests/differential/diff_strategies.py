"""Strategies and helpers for the differential-testing harness.

The harness's contract: every engine configuration — index features on or
off, any partition count, inline or fanned out, memory or SQLite —
must be *observationally identical*.  Identical aggregates and masks, but
also identical operation counters and cache traffic, so the indexes can
never be detected from the outside (except through the purely
observational ``skipped_partitions`` tally, which is excluded from the
comparisons and asserted separately with a proof check).

Tables and queries are Hypothesis-generated over a fixed four-column
schema (INT, FLOAT, STRING, BOOL, all nullable) whose query value domains
deliberately include values absent from the data, out-of-range bounds and
occasionally mistyped constants — the places where skip decisions, bitmap
misses and error behaviour must still match the plain path bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, Tuple

import hypothesis.strategies as st
import numpy as np

from repro.sdl import (
    ExclusionPredicate,
    NoConstraint,
    RangePredicate,
    SDLQuery,
    SetPredicate,
)
from repro.storage import DataType, Table, build_column

COLUMNS = ("num", "val", "cat", "flag")

_CATEGORIES = ["alpha", "beta", "gamma", "delta", "epsilon"]

_CELLS = {
    "num": st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    "val": st.one_of(
        st.none(),
        st.floats(min_value=-100, max_value=100, allow_nan=False).map(
            lambda value: round(value, 2)
        ),
    ),
    "cat": st.one_of(st.none(), st.sampled_from(_CATEGORIES)),
    "flag": st.one_of(st.none(), st.booleans()),
}

_DTYPES = {
    "num": DataType.INT,
    "val": DataType.FLOAT,
    "cat": DataType.STRING,
    "flag": DataType.BOOL,
}

#: Predicate value domains: wider than the data (unknown categories,
#: out-of-range numbers) and, for ``num``, occasionally float constants —
#: INT set predicates truncate them, a classic skip-correctness trap.
_VALUES = {
    "num": st.one_of(
        st.integers(min_value=-60, max_value=60),
        st.floats(min_value=-60, max_value=60, allow_nan=False).map(
            lambda value: round(value, 1)
        ),
    ),
    "val": st.floats(min_value=-120, max_value=120, allow_nan=False).map(
        lambda value: round(value, 2)
    ),
    "cat": st.sampled_from(_CATEGORIES + ["zeta", "eta", ""]),
    "flag": st.booleans(),
}


@st.composite
def small_tables(draw) -> Table:
    """A nullable four-column table of 0..120 rows."""
    rows = draw(st.integers(min_value=0, max_value=120))
    columns = [
        build_column(
            name,
            draw(st.lists(_CELLS[name], min_size=rows, max_size=rows)),
            _DTYPES[name],
        )
        for name in COLUMNS
    ]
    return Table("diff", columns)


@st.composite
def predicates_for(draw, attribute: str):
    kind = draw(st.sampled_from(["none", "range", "set", "exclusion"]))
    if kind == "none":
        return NoConstraint(attribute)
    if kind == "range":
        values = _VALUES[attribute]
        first, second = draw(values), draw(values)
        low, high = min(first, second), max(first, second)
        include_low, include_high = draw(st.booleans()), draw(st.booleans())
        if low == high:
            include_low = include_high = True
        return RangePredicate(
            attribute, low, high, include_low=include_low, include_high=include_high
        )
    members = frozenset(draw(st.sets(_VALUES[attribute], min_size=1, max_size=4)))
    if kind == "set":
        return SetPredicate(attribute, members)
    return ExclusionPredicate(attribute, members)


@st.composite
def sdl_queries(draw) -> SDLQuery:
    attributes = draw(
        st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=4, unique=True)
    )
    return SDLQuery([draw(predicates_for(attribute)) for attribute in attributes])


@st.composite
def drilldowns(draw) -> Tuple[SDLQuery, SDLQuery]:
    """A ``(parent, child)`` pair where the child adds one new predicate.

    Exactly the shape drill-down and HB-cuts pieces produce, which is the
    mask-reuse hot case; parents keep the child's attribute unconstrained
    so signatures line up the way real exploration contexts do.
    """
    parent = draw(sdl_queries())
    target = draw(st.sampled_from(parent.predicates))
    delta = draw(predicates_for(target.attribute))
    child = SDLQuery(
        delta
        if p.attribute == target.attribute and not isinstance(delta, NoConstraint)
        else p
        for p in parent.predicates
    )
    relaxed = SDLQuery(
        NoConstraint(p.attribute) if p.attribute == target.attribute else p
        for p in parent.predicates
    )
    return relaxed, child


def outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``("error", ExceptionType)`` — never raises.

    Differential comparisons treat raising the same exception type as
    agreement: the indexed path must fail exactly where the plain path
    fails.
    """
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as error:
        return ("error", type(error).__name__)


def counters_except_skips(engine) -> Dict[str, int]:
    """Counter snapshot minus the purely observational skip tally."""
    snapshot = engine.counter.snapshot()
    snapshot.pop("skipped_partitions", None)
    return snapshot


def equal_outcomes(left, right) -> bool:
    if left[0] != right[0]:
        return False
    if left[0] == "error":
        return left[1] == right[1]
    a, b = left[1], right[1]
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b
