"""Property tests: ``parse_where(query_to_where(q))`` reproduces ``q``.

The PR 2 satellite: the SDL → WHERE → SDL round trip must be the identity
across range, set, exclusion and no-constraint predicates — this is what
lets :class:`repro.backends.sqlite.SQLiteBackend` treat the SQL glue as a
lossless wire format.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sdl import (
    ExclusionPredicate,
    NoConstraint,
    RangePredicate,
    SDLQuery,
    SetPredicate,
)
from repro.storage import parse_where, query_to_where

_SETTINGS = settings(max_examples=150, deadline=None)

_ATTRIBUTES = st.sampled_from(
    ["tonnage", "type_of_boat", "departure_harbour", "built", "col_1", "between"]
)

_TEXT_VALUES = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                           whitelist_characters="_-' "),
    min_size=1,
    max_size=10,
).map(str.strip).filter(bool)

_SET_VALUES = st.one_of(
    st.sets(_TEXT_VALUES, min_size=1, max_size=4),
    st.sets(st.integers(min_value=-500, max_value=500), min_size=1, max_size=4),
)


@st.composite
def predicates(draw, attribute):
    kind = draw(st.sampled_from(["none", "range", "one_sided", "set", "exclusion"]))
    if kind == "none":
        return NoConstraint(attribute)
    if kind == "range":
        first = draw(st.integers(min_value=-10_000, max_value=10_000))
        second = draw(st.integers(min_value=-10_000, max_value=10_000))
        low, high = min(first, second), max(first, second)
        include_high = draw(st.booleans()) if low != high else True
        return RangePredicate(attribute, low, high, include_high=include_high)
    if kind == "one_sided":
        bound = draw(st.integers(min_value=-10_000, max_value=10_000))
        direction = draw(st.sampled_from(["<", "<=", ">", ">="]))
        if direction in ("<", "<="):
            return RangePredicate(
                attribute, float("-inf"), bound, include_high=direction == "<="
            )
        return RangePredicate(
            attribute, bound, float("inf"), include_low=direction == ">="
        )
    values = frozenset(draw(_SET_VALUES))
    if kind == "set":
        return SetPredicate(attribute, values)
    return ExclusionPredicate(attribute, values)


@st.composite
def queries(draw):
    attributes = draw(st.lists(_ATTRIBUTES, min_size=1, max_size=4, unique=True))
    return SDLQuery([draw(predicates(attribute)) for attribute in attributes])


class TestWhereRoundTrip:
    @_SETTINGS
    @given(query=queries())
    def test_round_trip_is_identity(self, query):
        """``parse_where ∘ query_to_where`` reproduces the constrained part.

        Unconstrained predicates are dropped by the WHERE rendering (a
        missing column constrains nothing), so equality is asserted on
        the constrained projection of the original query.
        """
        constrained = SDLQuery(p for p in query.predicates if p.is_constrained)
        if not constrained.predicates:
            assert query_to_where(query) == "TRUE"
            return
        assert parse_where(query_to_where(query)) == constrained

    @_SETTINGS
    @given(query=queries())
    def test_signature_stable_across_round_trip(self, query):
        constrained = SDLQuery(p for p in query.predicates if p.is_constrained)
        if not constrained.predicates:
            return
        reparsed = parse_where(query_to_where(query))
        assert reparsed.key == constrained.key

    @_SETTINGS
    @given(query=queries(), which=st.integers(min_value=0, max_value=1))
    def test_row_semantics_preserved(self, query, which):
        constrained = SDLQuery(p for p in query.predicates if p.is_constrained)
        if not constrained.predicates:
            return
        reparsed = parse_where(query_to_where(query))
        row = {}
        for predicate in constrained.predicates:
            if isinstance(predicate, RangePredicate):
                probes = [predicate.low, predicate.high]
            elif isinstance(predicate, (SetPredicate, ExclusionPredicate)):
                member = next(iter(predicate.sorted_values))
                probes = [member, "certainly-not-a-member"]
            else:  # pragma: no cover - constrained projection excludes these
                probes = [0, 1]
            probe = probes[which]
            if isinstance(probe, float) and probe in (float("inf"), float("-inf")):
                probe = 0
            row[predicate.attribute] = probe
        assert constrained.matches_row(row) == reparsed.matches_row(row)
