"""Unit tests for the SDL text parser."""

from __future__ import annotations

import pytest

from repro.errors import SDLSyntaxError
from repro.sdl import NoConstraint, RangePredicate, SetPredicate, parse_query
from repro.sdl.parser import parse_predicate


class TestLiteralsAndPredicates:
    def test_parse_no_constraint(self):
        assert parse_predicate("tonnage:") == NoConstraint("tonnage")

    def test_parse_closed_range(self):
        assert parse_predicate("date: [1550, 1650]") == RangePredicate("date", 1550, 1650)

    def test_parse_half_open_range(self):
        predicate = parse_predicate("date: [1550, 1650[")
        assert predicate == RangePredicate("date", 1550, 1650, include_high=False)

    def test_parse_open_low_range(self):
        predicate = parse_predicate("date: ]1550, 1650]")
        assert predicate == RangePredicate("date", 1550, 1650, include_low=False)

    def test_parse_float_range(self):
        predicate = parse_predicate("score: [0.5, 2.75]")
        assert predicate == RangePredicate("score", 0.5, 2.75)

    def test_parse_negative_numbers(self):
        predicate = parse_predicate("delta: [-5, -1]")
        assert predicate == RangePredicate("delta", -5, -1)

    def test_parse_set_with_quoted_strings(self):
        predicate = parse_predicate("type: {'jacht', 'fluit'}")
        assert predicate == SetPredicate("type", frozenset({"jacht", "fluit"}))

    def test_parse_set_with_barewords(self):
        predicate = parse_predicate("type: {jacht, fluit}")
        assert predicate == SetPredicate("type", frozenset({"jacht", "fluit"}))

    def test_parse_set_with_numbers(self):
        predicate = parse_predicate("code: {200, 404}")
        assert predicate == SetPredicate("code", frozenset({200, 404}))

    def test_double_quoted_strings(self):
        predicate = parse_predicate('type: {"jacht"}')
        assert predicate == SetPredicate("type", frozenset({"jacht"}))


class TestQueries:
    def test_parse_paper_example(self):
        query = parse_query("(date : [1550,1650], tonnage :, type : {'jacht', 'fluit'})")
        assert query.attributes == ("date", "tonnage", "type")
        assert query.predicate_for("date") == RangePredicate("date", 1550, 1650)
        assert query.predicate_for("tonnage") == NoConstraint("tonnage")
        assert query.predicate_for("type") == SetPredicate(
            "type", frozenset({"jacht", "fluit"})
        )

    def test_parse_without_outer_parentheses(self):
        query = parse_query("tonnage: [1000, 5000], type:")
        assert query.attributes == ("tonnage", "type")

    def test_parse_empty_parentheses(self):
        assert len(parse_query("()")) == 0

    def test_whitespace_is_insignificant(self):
        compact = parse_query("(a:[1,2],b:)")
        spaced = parse_query("(  a : [ 1 , 2 ] , b :  )")
        assert compact == spaced

    def test_round_trip_through_to_sdl(self):
        query = parse_query("(date: [1550, 1650], tonnage:, type: {'fluit', 'jacht'})")
        assert parse_query(query.to_sdl()) == query


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "(",
            "(a: [1, 2)",
            "a: [1 2]",
            "a: {1,}",
            "a: [1, 2] extra",
            "a = 5",
            "(a: [1, 2], a: [3, 4])",  # duplicate attribute -> QueryError subclass of SDLError
        ],
    )
    def test_invalid_inputs_raise(self, text):
        with pytest.raises(Exception) as excinfo:
            parse_query(text)
        # Every failure surfaces as a library error, never a bare ValueError.
        from repro.errors import CharlesError

        assert isinstance(excinfo.value, CharlesError)

    def test_syntax_error_carries_position(self):
        with pytest.raises(SDLSyntaxError) as excinfo:
            parse_query("(a: [1, 2] | b:)")
        assert excinfo.value.position is not None

    def test_empty_predicate_rejected(self):
        with pytest.raises(SDLSyntaxError):
            parse_predicate("   ")
