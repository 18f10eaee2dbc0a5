"""Property-based tests: SDL and SQL text round-trips.

The query/predicate generators live in ``sdl_strategies.py``, shared
with the wire-codec round-trip suite (``test_wire_roundtrip.py``).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from sdl_strategies import queries, sql_friendly_queries

from repro.sdl import (
    RangePredicate,
    SetPredicate,
    parse_query,
)
from repro.storage import parse_where, query_to_where

_SETTINGS = settings(max_examples=120, deadline=None)


class TestSDLRoundTrip:
    @_SETTINGS
    @given(query=queries())
    def test_parse_of_to_sdl_is_identity(self, query):
        assert parse_query(query.to_sdl()) == query

    @_SETTINGS
    @given(query=queries())
    def test_signature_is_stable_across_round_trip(self, query):
        assert parse_query(query.to_sdl()).key == query.key

    @_SETTINGS
    @given(query=queries(), which=st.integers(min_value=0, max_value=2))
    def test_round_trip_preserves_row_semantics(self, query, which):
        reparsed = parse_query(query.to_sdl())
        # Build a probe row with type-appropriate values derived from the
        # predicates themselves (bounds for ranges, members for sets).
        row = {}
        for predicate in query.predicates:
            if isinstance(predicate, RangePredicate):
                candidates = [predicate.low, predicate.high, predicate.high + 1]
            elif isinstance(predicate, SetPredicate):
                member = next(iter(predicate.sorted_values))
                candidates = [member, member, "certainly-not-a-member"]
            else:
                candidates = [0, "anything", None]
            row[predicate.attribute] = candidates[which]
        assert query.matches_row(row) == reparsed.matches_row(row)


class TestSQLRoundTrip:
    @_SETTINGS
    @given(query=sql_friendly_queries())
    def test_where_clause_round_trip_preserves_constraints(self, query):
        reparsed = parse_where(query_to_where(query))
        for attribute in query.constrained_attributes:
            assert reparsed.predicate_for(attribute) == query.predicate_for(attribute)
