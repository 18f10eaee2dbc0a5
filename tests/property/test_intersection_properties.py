"""Property-based tests: the conjunction of two predicates on one attribute.

``intersect_predicates`` builds the cells of every product and the pieces
of every cut.  Its result selects exactly the values both operands select,
and when it equals an operand it *is* that operand, so the text the operand
rendered and the bindings it keeps are not made again for a copy.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import PredicateError
from repro.sdl import (
    ExclusionPredicate,
    NoConstraint,
    Predicate,
    RangePredicate,
    SetPredicate,
    intersect_predicates,
)

#: A small domain, so containment and equal bounds come up often.
_VALUES = st.integers(min_value=0, max_value=6)
_PROBES = [value / 2 for value in range(-2, 15)]


@st.composite
def _predicates(draw: st.DrawFn) -> Predicate:
    kind = draw(st.sampled_from(["none", "range", "set", "exclusion"]))
    if kind == "none":
        return NoConstraint("a")
    if kind == "range":
        low, high = sorted((draw(_VALUES), draw(_VALUES)))
        closed = low == high
        return RangePredicate(
            "a",
            low=low,
            high=high,
            include_low=closed or draw(st.booleans()),
            include_high=closed or draw(st.booleans()),
        )
    values = frozenset(draw(st.sets(_VALUES, min_size=1, max_size=4)))
    return SetPredicate("a", values) if kind == "set" else ExclusionPredicate("a", values)


@settings(max_examples=400, deadline=None)
@given(_predicates(), _predicates())
def test_the_conjunction_selects_what_both_select(first, second):
    try:
        conjunction = intersect_predicates(first, second)
    except PredicateError:  # exclusion inside a range: not one SDL predicate
        return
    for probe in _PROBES:
        both = first.matches_value(probe) and second.matches_value(probe)
        assert (conjunction is not None and conjunction.matches_value(probe)) == both


@settings(max_examples=400, deadline=None)
@given(_predicates(), _predicates())
def test_an_operand_equal_to_the_conjunction_is_returned_itself(first, second):
    try:
        conjunction = intersect_predicates(first, second)
    except PredicateError:
        return
    if conjunction == first or conjunction == second:
        assert conjunction is first or conjunction is second
